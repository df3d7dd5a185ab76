package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	eve "repro"
)

// layer names what a span wraps. The layers are the repository's modules,
// timed from outside: the benchmark's own spans around calls into their
// public functions, plus the Observer's phase timings.
type layer uint8

const (
	lOp         layer = iota // one whole operation
	lParse                   // eve.ParseQuery (internal/esql)
	lRouteMiss               // Version.RouteDef deciding a route (warehouse + misd + plan compile)
	lRouteHit                // Version.RouteDef answering from the route cache
	lExec                    // Route.Execute (internal/plan)
	lUpdates                 // System.ApplyUpdates
	lMaintain                // PhaseMaintain: one view's Algorithm-1 maintenance
	lEvolveSkip              // EvolveBatch of a change no view's footprint holds
	lEvolve                  // EvolveBatch of a change that reached a view
	lSync                    // PhaseSync: one view's synchronize-and-rank search
	lAdopt                   // PhaseAdopt: one view's adoption incl. re-materialization
	lTTFB                    // HTTP request written to first response byte
	lBody                    // HTTP first response byte to body drained
	numLayers
)

var layerNames = [numLayers]string{
	"op", "esql.parse", "route.decide", "route.cache_hit", "exec.execute", "maintain.batch",
	"maintain.view", "evolve.skip", "evolve.change", "sync.view", "adopt.view", "http.ttfb", "http.body",
}

type span struct {
	op    int32
	layer layer
	iv    interval
}

// tracer keeps spans in memory for one traced pass. It is the pass's
// Observer, so the pipeline's phase timings attach to the operation in
// flight; hooks fire from worker goroutines, hence the mutex.
type tracer struct {
	eve.NopObserver
	base time.Time
	cur  atomic.Int32

	mu         sync.Mutex
	spans      []span
	candidates []float64 // len(Ranking.Candidates) per OnSync
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(l layer, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op: t.cur.Load(), layer: l, iv: interval{start, end}})
	t.mu.Unlock()
}

// begin starts operation id and returns its start time.
func (t *tracer) begin(id int) int64 {
	t.cur.Store(int32(id))
	return t.now()
}

// OnPhase records an observer phase span ending now.
func (t *tracer) OnPhase(p eve.Phase, d time.Duration) {
	var l layer
	switch p {
	case eve.PhaseSync:
		l = lSync
	case eve.PhaseAdopt:
		l = lAdopt
	case eve.PhaseMaintain:
		l = lMaintain
	default:
		return
	}
	end := t.now()
	t.add(l, end-int64(d), end)
}

// OnSync records the size of one ranked rewriting search.
func (t *tracer) OnSync(_ string, r *eve.Ranking) {
	n := 0
	if r != nil {
		n = len(r.Candidates)
	}
	t.mu.Lock()
	t.candidates = append(t.candidates, float64(n))
	t.mu.Unlock()
}

// layerStats is the analysed trace: per-layer span durations and, for the
// layers with children, self times (the span minus the union of its
// children).
type layerStats struct {
	durUS  [numLayers][]float64
	selfUS [numLayers][]float64
}

// childrenOf lists the layers whose spans nest inside a parent layer's.
var childrenOf = map[layer][]layer{
	lUpdates: {lMaintain},
	lEvolve:  {lSync, lAdopt},
}

func (t *tracer) analyse() layerStats {
	var ls layerStats
	byOp := map[int32][]span{}
	for _, s := range t.spans {
		d := float64(s.iv.end-s.iv.start) / 1e3
		ls.durUS[s.layer] = append(ls.durUS[s.layer], d)
		byOp[s.op] = append(byOp[s.op], s)
	}
	for _, spans := range byOp {
		for _, parent := range spans {
			kids := childrenOf[parent.layer]
			if kids == nil {
				continue
			}
			var ivs []interval
			for _, s := range spans {
				for _, k := range kids {
					if s.layer == k {
						ivs = append(ivs, s.iv)
					}
				}
			}
			self := parent.iv.end - parent.iv.start - covered(parent.iv, ivs)
			ls.selfUS[parent.layer] = append(ls.selfUS[parent.layer], float64(self)/1e3)
		}
	}
	return ls
}

// attribution renders each layer's summed span time as a share of all
// operation time, so the trace shows where a workload's time goes. Phase
// spans of concurrent workers can sum past their parent.
func (ls layerStats) attribution() []string {
	var total float64
	for _, d := range ls.durUS[lOp] {
		total += d
	}
	var out []string
	for l := lParse; l < numLayers; l++ {
		var sum float64
		for _, d := range ls.durUS[l] {
			sum += d
		}
		if len(ls.durUS[l]) > 0 {
			out = append(out, fmt.Sprintf("%-16s n=%-7d total=%10.1fms share=%5.1f%%", layerNames[l], len(ls.durUS[l]), sum/1e3, 100*ratio(sum, total)))
		}
	}
	return out
}
