package main

import (
	"context"
	"encoding/json"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	eve "repro"
	"repro/internal/exec"
)

// small returns a copy of the named workload sized for tests.
func small(t *testing.T, name string, ops, rows int) *workload {
	t.Helper()
	wl := *findWorkload(name)
	wl.opsPerRound, wl.warmup = ops, ops/8
	if rows > 0 {
		wl.rows = rows
	}
	return &wl
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.gen(7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wl.gen(7, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed generated different sequences", wl.name)
		}
		c, err := wl.gen(8, 300)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", wl.name)
		}
	}
}

// TestGeneratedOpsValid replays whole generated rounds against a fresh
// system: every change must land, every update batch must apply (arity
// and deleted tuples as generated), and every read must route.
func TestGeneratedOpsValid(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		ops  int
		rows int
	}{
		{"route-adhoc", 2048, 0},
		{"evolve-replay", 400, 40},
	} {
		wl := findWorkload(tc.name)
		ops, err := wl.gen(3, tc.ops)
		if err != nil {
			t.Fatal(err)
		}
		rows := wl.rows
		if tc.rows > 0 {
			rows = tc.rows
		}
		sys, err := buildSystem(ctx, wl.params, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[opKind]int{}
		for i, o := range ops {
			kinds[o.kind]++
			switch o.kind {
			case opRead:
				_, err = sys.Query(ctx, o.sql)
			case opWrite:
				for _, u := range o.updates {
					if r := sys.Space.Relation(u.Rel); r == nil || r.Schema().Len() != len(u.Tuple) {
						t.Fatalf("%s op %d: update %v does not match relation %s", tc.name, i, u, u.Rel)
					}
				}
				_, err = sys.ApplyUpdates(ctx, o.updates)
			case opChange:
				_, err = sys.EvolveBatch(ctx, []eve.Change{o.change})
			}
			if err != nil {
				t.Fatalf("%s op %d (%s): %v", tc.name, i, o.kind, err)
			}
		}
		if kinds[opRead] == 0 || kinds[opWrite] == 0 || kinds[opChange] == 0 {
			t.Errorf("%s: op mix %v lacks a kind", tc.name, kinds)
		}
	}
}

func TestInprocFingerprintsRepeat(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		ops, rows int
	}{
		{"route-adhoc", 256, 0},
		{"evolve-replay", 60, 200},
	} {
		wl := small(t, tc.name, tc.ops, tc.rows)
		var fps [2][]uint64
		for i := range fps {
			p := newPass(i == 1) // the traced pass must do the same work
			if err := run(ctx, wl, 5, 2, config{}, p); err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("%s: %d failed ops: %v", tc.name, p.failed, p.errors)
			}
			fps[i] = p.fps
		}
		if !reflect.DeepEqual(fps[0], fps[1]) {
			t.Errorf("%s: fingerprints differ between runs: %x vs %x", tc.name, fps[0], fps[1])
		}
		if fps[0][0] == fps[0][1] {
			t.Errorf("%s: rounds 0 and 1 should run different sequences", tc.name)
		}
	}
}

func TestServeFingerprintsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs eved")
	}
	bin := filepath.Join(t.TempDir(), "eved")
	build := osexec.Command("go", "build", "-o", bin, "../cmd/eved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build eved: %v\n%s", err, out)
	}
	wl := small(t, "serve-http", 200, 0)
	var fps [2][]uint64
	for i := range fps {
		p := newPass(i == 1)
		if err := run(context.Background(), wl, 5, 1, config{eved: bin}, p); err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("%d failed ops: %v", p.failed, p.errors)
		}
		if p.tr != nil && p.reused < p.conns-1 {
			t.Errorf("keep-alive: %d of %d requests reused the connection", p.reused, p.conns)
		}
		fps[i] = p.fps
	}
	if !reflect.DeepEqual(fps[0], fps[1]) {
		t.Errorf("fingerprints differ between runs: %x vs %x", fps[0], fps[1])
	}
}

// TestFailedOpAccounting injects a checksum mismatch into a sampled read
// and checks it is counted as a failed op.
func TestFailedOpAccounting(t *testing.T) {
	ctx := context.Background()
	wl := small(t, "route-adhoc", 64, 0)
	sys, err := buildSystem(ctx, wl.params, wl.rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := wl.gen(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := sys.Snapshot()
	res, err := v.Query(ctx, ops[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(false)
	good := readSample{v: v, sql: ops[0].sql, sum: exec.RowChecksum(res)}
	p.check(verifyBase(ctx, good))
	bad := good
	bad.sum++
	p.check(verifyBase(ctx, bad))
	if p.attempted != 2 || p.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", p.attempted, p.failed)
	}
	tp := newPass(true)
	if got := layerMetrics(p, tp)["failed_ops_ratio"].Value; got != 0.5 {
		t.Errorf("failed_ops_ratio = %v, want 0.5", got)
	}
}

// metricName is the allowed shape of a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every emitted metric name has the allowed shape
// and that the emitted sets are exactly those BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	p := newPass(false)
	p.endRound()
	e2e := e2eMetrics(p)
	layers := layerMetrics(p, newPass(true))
	for _, set := range []map[string]metric{e2e, layers} {
		for name, m := range set {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q has a disallowed shape", name)
			}
			if m.Unit == "" {
				t.Errorf("metric %q has no unit", name)
			}
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted map[string]metric) {
		var want, got []string
		for _, d := range declared {
			want = append(want, d.Name)
			if m, ok := emitted[d.Name]; ok && m.Unit != d.Unit {
				t.Errorf("%s metric %s: unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
		for name := range emitted {
			got = append(got, name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s metrics: emitted %v, declared %v", kind, got, want)
		}
	}
	check("end-to-end", spec.EndToEnd, e2e)
	check("per-layer", spec.PerLayer, layers)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if wl := findWorkload(w.Name); wl == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		} else if wl.why != w.Why {
			t.Errorf("workload %s: why %q, declared %q", w.Name, wl.why, w.Why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, implemented %d", names, len(workloads))
	}
}
