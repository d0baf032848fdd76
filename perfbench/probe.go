package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The probe is the benchmark's yardstick for how fast the shared host
// runs it at the moment: a fixed shortest-path sweep over a fixed
// random graph, with a map per source as the program keeps its tables,
// written here rather than taken from the program so that no change to
// the program moves it. Identical checker work took up to 1.5 times as
// long in one run as in another a few minutes later on the same host,
// and the probe slowed with it, so the batch workloads scale their
// unit metric to refProbeMs, the probe's time on the host the
// benchmark was defined on. The probe runs on one goroutine: run on
// every CPU at once, its time jumped between two levels a factor of two
// apart while the checker's did not.
const (
	probeNodes, probeDegree, probeSources = 2000, 3, 20
	// refProbeMs is the probe's median time in a run on the 2-core
	// Xeon the benchmark was defined on.
	refProbeMs = 45.0
)

type probeEdge struct{ w, v int32 }

type probeHeap []probeEdge

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].w < h[j].w }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(probeEdge)) }
func (h *probeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

var probeGraph = sync.OnceValue(func() [][]probeEdge {
	r := rand.New(rand.NewSource(1))
	adj := make([][]probeEdge, probeNodes)
	for u := range adj {
		for range probeDegree {
			v, w := int32(r.Intn(probeNodes)), int32(1+r.Intn(20))
			adj[u] = append(adj[u], probeEdge{w, v})
			adj[v] = append(adj[v], probeEdge{w, int32(u)})
		}
	}
	return adj
})

// probeSweep runs Dijkstra from the first probeSources nodes and
// returns the sum of all distances.
func probeSweep(adj [][]probeEdge) int64 {
	var total int64
	for src := range probeSources {
		dist := make(map[int32]int32, len(adj))
		h := &probeHeap{{0, int32(src)}}
		for h.Len() > 0 {
			e := heap.Pop(h).(probeEdge)
			if _, done := dist[e.v]; done {
				continue
			}
			dist[e.v] = e.w
			total += int64(e.w)
			for _, x := range adj[e.v] {
				if _, done := dist[x.v]; !done {
					heap.Push(h, probeEdge{e.w + x.w, x.v})
				}
			}
		}
	}
	return total
}

// probe runs one sweep and returns its wall time in ms. It collects
// the garbage first, so a collection the measured work left running
// does not share the CPUs with the sweep.
func probe() float64 {
	adj := probeGraph()
	runtime.GC()
	start := time.Now()
	probeSweep(adj)
	return ms(time.Since(start))
}

// scaled converts a time measured in this run to the reference host's
// speed: t × refProbeMs over the run's median probe. The median tracked
// the host better than the fastest probe did.
func scaled(t float64, probes []float64) float64 { return t * refProbeMs / median(probes) }

// probeLine is the report line that shows how unit was scaled.
func probeLine(unit float64, probes []float64) string {
	return fmt.Sprintf("unit_ms=%.1f at the reference speed: probe ms p50=%.2f min=%.2f max=%.2f (n=%d), reference %.0f",
		unit, median(probes), quantile(probes, 0), quantile(probes, 1), len(probes), refProbeMs)
}
