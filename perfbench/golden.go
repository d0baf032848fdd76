package main

import (
	_ "embed"
	"encoding/json"
)

// goldenSeed is the seed whose output digests are committed in
// golden.json.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares a workload's output digest with the committed
// one when the run uses the golden seed.
func checkGolden(res *result, workload string, seed int64, digest string) {
	if seed != goldenSeed {
		return
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		res.fail("golden.json: %v", err)
		return
	}
	res.attempted++
	if want := golden[workload]; want != digest {
		res.fail("%s seed %d: output digest %s, committed %q", workload, seed, digest, want)
	}
}
