package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	eve "repro"
	"repro/internal/exec"
	"repro/internal/scenario"
)

// readSample is a read to re-answer from base relations: the version it
// ran at and the checksum it returned.
type readSample struct {
	v   *eve.Version
	sql string
	sum uint64
}

// buildSystem is the in-process set-up: build the churn space, populate
// it, and register (materialize) every view.
func buildSystem(ctx context.Context, p scenario.ChurnParams, rows int, obs eve.Observer) (*eve.System, error) {
	h, err := scenario.Churn(p)
	if err != nil {
		return nil, err
	}
	sp, err := h.BuildSpace()
	if err != nil {
		return nil, err
	}
	if err := scenario.Populate(sp, rows); err != nil {
		return nil, err
	}
	opts := []eve.Option{eve.WithSpace(sp)}
	if obs != nil {
		opts = append(opts, eve.WithObserver(obs))
	}
	sys, err := eve.New(opts...)
	if err != nil {
		return nil, err
	}
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(ctx, def); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// inprocRound sets up a fresh system, runs one round's ops against it
// (the first warm of them untimed), and checks its answers.
func inprocRound(ctx context.Context, wl *workload, ops []op, p *pass) error {
	var obs eve.Observer
	if p.tr != nil {
		obs = p.tr
	}
	// Every set-up starts from a collected heap, so the previous round's
	// garbage does not land in this round's set-up time.
	runtime.GC()
	start := time.Now()
	sys, err := buildSystem(ctx, wl.params, wl.rows, obs)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	p.setupS = append(p.setupS, time.Since(start).Seconds())

	fp := newFingerprint()
	seenRoutes := map[*eve.Route]bool{} // routes returned at the current version
	var seenAt *eve.Version
	// adopted marks views (re)materialized since the last batch: the next
	// batch rebuilds their maintenance state, a latency mode of its own.
	adopted := true
	var m0, m1 runtime.MemStats
	for i, o := range ops {
		if i == wl.warmup {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		id := p.nextOp()
		var opStart int64
		if p.tr != nil {
			opStart = p.tr.begin(id)
		}
		c0, t0 := cpuTime(), time.Now()
		var (
			res   *eve.Relation
			v     *eve.Version
			steps []eve.StepResult
			met   eve.Metrics
			err   error
		)
		switch o.kind {
		case opRead:
			v = sys.Snapshot()
			if p.tr == nil {
				res, err = v.Query(ctx, o.sql)
				break
			}
			res, err = tracedRead(ctx, p, v, o.sql, func(r *eve.Route) bool {
				if seenAt != v {
					clear(seenRoutes)
					seenAt = v
				}
				hit := seenRoutes[r]
				seenRoutes[r] = true
				return hit
			})
		case opWrite:
			met, err = sys.ApplyUpdates(ctx, o.updates)
			if p.tr != nil {
				p.tr.add(lUpdates, opStart, p.tr.now())
			}
		case opChange:
			steps, err = sys.EvolveBatch(ctx, []eve.Change{o.change})
			if p.tr != nil {
				l := lEvolveSkip
				if synced(steps) {
					l = lEvolve
				}
				p.tr.add(l, opStart, p.tr.now())
			}
		}
		d, cpu := time.Since(t0), cpuTime()-c0
		if p.tr != nil {
			p.tr.add(lOp, opStart, p.tr.now())
		}
		p.attempted++
		if err != nil {
			p.fail(fmt.Sprintf("op %d (%s): %v", i, o.kind, err))
			fp.str(err.Error())
			continue
		}
		class := o.class
		switch o.kind {
		case opRead:
			sum := exec.RowChecksum(res)
			fp.u64(sum)
			fp.u64(uint64(res.Card()))
			if o.verify {
				// Checked now, outside the op's timing, so the run does
				// not pin old versions in memory.
				p.check(verifyBase(ctx, readSample{v: v, sql: o.sql, sum: sum}))
			}
			if p.tr != nil {
				p.rows = append(p.rows, float64(res.Card()))
				p.viewsScanned = append(p.viewsScanned, float64(len(v.Views())))
			}
		case opWrite:
			fp.u64(uint64(met.Messages))
			fp.u64(uint64(met.Bytes))
			fp.u64(uint64(met.IO))
			p.maint.Add(met)
			p.batches++
			if adopted {
				class += "/after-adopt"
				adopted = false
			}
		case opChange:
			class += "/skipped"
			if synced(steps) {
				class = o.class + "/synchronized"
				adopted = true
			}
			for _, r := range steps[0].Results {
				fp.str(r.ViewName)
				if r.Chosen != nil {
					fp.str(r.Chosen.Rewriting.View.Signature())
					fp.f64(r.Chosen.DD)
					p.dd = append(p.dd, r.Chosen.DD)
				}
				if r.Deceased {
					fp.str("deceased")
				}
			}
		}
		if i >= wl.warmup {
			p.record(o.kind, class, synced(steps), d, cpu)
		}
	}
	runtime.ReadMemStats(&m1)
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.numGC += uint64(m1.NumGC - m0.NumGC)
	p.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapLiveMB = append(p.heapLiveMB, float64(m1.HeapAlloc)/(1<<20))

	final := sys.Snapshot()
	st := sys.Session().Stats()
	fp.u64(final.Seq())
	for _, n := range []int{st.Changes, st.Groups, st.Skipped, st.Searches, st.SearchesShared} {
		fp.u64(uint64(n))
	}
	p.stats = append(p.stats, st)
	p.viewsLive = append(p.viewsLive, float64(len(final.ViewNames())))
	p.fps = append(p.fps, fp.h)

	for _, vv := range final.Views() {
		p.check(verifyExtent(vv, sys.Space))
	}
	return nil
}

// synced reports whether a one-change EvolveBatch reached a view, i.e. ran
// synchronize → rank → adopt rather than being skipped by the footprint
// check.
func synced(steps []eve.StepResult) bool { return len(steps) == 1 && len(steps[0].Results) > 0 }

// tracedRead is the read of Version.Query split into its public steps —
// parse, route, execute — each under its own span. routeHit reports
// whether RouteDef returned a route it already returned at this version.
func tracedRead(ctx context.Context, p *pass, v *eve.Version, sql string, routeHit func(*eve.Route) bool) (*eve.Relation, error) {
	tr := p.tr
	s0 := tr.now()
	q, err := eve.ParseQuery(sql)
	s1 := tr.now()
	tr.add(lParse, s0, s1)
	if err != nil {
		return nil, err
	}
	r, err := v.RouteDef(q)
	s2 := tr.now()
	if err != nil {
		return nil, err
	}
	l := lRouteMiss
	p.routeReads++
	if routeHit(r) {
		l = lRouteHit
		p.routeHits++
	}
	tr.add(l, s1, s2)
	p.kinds[r.Kind]++
	res, err := r.Execute(ctx)
	tr.add(lExec, s2, tr.now())
	return res, err
}

// verifyBase re-answers a sampled read from base relations at the version
// it ran at and compares checksums.
func verifyBase(ctx context.Context, s readSample) error {
	q, err := eve.ParseQuery(s.sql)
	if err != nil {
		return err
	}
	r, err := s.v.RouteDefBase(q)
	if err != nil {
		return err
	}
	res, err := r.Execute(ctx)
	if err != nil {
		return err
	}
	if got := exec.RowChecksum(res); got != s.sum {
		return fmt.Errorf("read %q at seq %d: routed checksum %016x, base %016x", s.sql, s.v.Seq(), s.sum, got)
	}
	return nil
}

// verifyExtent checks a live view's maintained extent against the naive
// evaluator run on its adopted definition.
func verifyExtent(vv *eve.VersionView, sp *eve.Space) error {
	want, err := exec.EvaluateNaive(vv.Def, sp)
	if err != nil {
		return fmt.Errorf("view %s: %w", vv.Name, err)
	}
	if exec.RowChecksum(want) != exec.RowChecksum(vv.Extent) || want.Card() != vv.Extent.Card() {
		return fmt.Errorf("view %s: extent (%d rows) differs from naive evaluation (%d rows)", vv.Name, vv.Extent.Card(), want.Card())
	}
	return nil
}
