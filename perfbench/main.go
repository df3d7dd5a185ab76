// Command perfbench is the repository's benchmark: one load-generating
// process drives seeded, deterministic workloads through the public
// surface — in process through eve.New / System, Snapshot, the evolution
// Session and ApplyUpdates, and over loopback HTTP against the real eved
// daemon — checks every answer, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics from a traced run of the same sequence).
//
// Usage (bash perfbench/run.sh builds both binaries and runs this):
//
//	perfbench -workload route-adhoc|evolve-replay|serve-http -seed N
//	    -seconds S -trace 0|1 [-eved path] [-out dir]
//
// Every workload is a fixed operation sequence generated from the seed:
// writes and capability changes are interleaved by operation index, never
// by the clock, and one closed-loop client waits for each reply. A run is
// a number of rounds fixed by -seconds; each round sets the system up
// afresh (a set-up time sample), runs its warm-up ops untimed, forces a GC,
// and times the rest. Round r of seed s always does the same work, which
// the printed work fingerprint proves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	eve "repro"
	"repro/internal/evolve"
	"repro/internal/scenario"
)

// workload is one benchmark workload: its op generator, its shape, and why
// it is in the benchmark.
type workload struct {
	name string
	why  string
	// params and rows shape the in-process space; unused by serve-http.
	params scenario.ChurnParams
	rows   int
	gen    func(seed int64, n int) ([]op, error)
	// opsPerRound and warmup size one round; roundSeconds is how long a
	// round takes on the reference 2-CPU machine, which fixes how many
	// rounds a -seconds budget buys.
	opsPerRound  int
	warmup       int
	roundSeconds float64
	http         bool
	// layers maps each per-layer metric this workload exercises to the
	// end-to-end metric it should move here.
	layers map[string]string
}

var workloads = []*workload{
	{
		name:         "route-adhoc",
		why:          "48 view families x 2 twins, 30-row extents, every read distinct: route matching over all 96 views dominates reads; each write republishes, so work moved into publication shows",
		params:       routeAdhocParams,
		rows:         routeAdhocRows,
		gen:          genRouteAdhoc,
		opsPerRound:  2048,
		warmup:       128,
		roundSeconds: 1,
		layers: map[string]string{
			"esql.parse_us": "read_p50_ms", "route.decide_us": "read_p50_ms", "route.views_scanned": "read_p50_ms",
			"route.share_residual": "read_p50_ms", "exec.execute_us": "read_p50_ms",
			"maintain.self_us": "write_p50_ms", "maintain.batch_us": "write_p50_ms", "evolve.self_us": "ops_per_s",
		},
	},
	{
		name:         "evolve-replay",
		why:          "16 replaceable twin views on 10k-row relations, changes and update batches by op index: synchronize/rank/adopt, Algorithm-1 maintenance and copy-on-write landing dominate",
		params:       evolveReplayParams,
		rows:         evolveReplayRows,
		gen:          genEvolveReplay,
		opsPerRound:  192,
		warmup:       6,
		roundSeconds: 3,
		layers: map[string]string{
			"route.cache_hit_ratio": "read_p50_ms", "exec.execute_us": "read_p50_ms", "exec.rows_per_read": "read_p50_ms",
			"maintain.batch_us": "write_p50_ms", "maintain.view_us": "write_p90_ms",
			"maintain.messages_per_batch": "write_p50_ms", "evolve.skip_us": "ops_per_s", "evolve.skip_ratio": "ops_per_s",
			"sync.view_us": "ops_per_s", "adopt.view_us": "ops_per_s", "evolve.self_us": "ops_per_s",
			"runtime.alloc_kb_per_op": "cpu_ms_per_op", "runtime.gc_pause_ms_per_kop": "write_p90_ms",
		},
	},
	{
		name:         "serve-http",
		why:          "the real eved over loopback, one keep-alive client, eveload's 4-query rotation plus 5% inserts: HTTP, JSON and shard front-end costs; routing is nearly free here",
		gen:          genServeHTTP,
		opsPerRound:  2000,
		warmup:       100,
		roundSeconds: 1,
		http:         true,
		layers: map[string]string{
			"http.ttfb_us": "read_p50_ms", "http.body_us": "read_p50_ms", "http.resp_bytes_mean": "read_p50_ms",
			"http.conn_reused_ratio": "read_p50_ms", "route.cache_hit_ratio": "read_p50_ms",
			"http.server_cpu_ms_per_op": "cpu_ms_per_op", "http.client_cpu_ms_per_op": "cpu_ms_per_op",
		},
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// pass accumulates one pass (untraced or traced) over a run's rounds.
type pass struct {
	tr  *tracer // nil when untraced
	ops int     // operation ids handed out

	setupS    []float64
	lat       [3][]float64 // ms per op kind, timed ops only
	changeMS  []float64    // ms of changes that reached a view
	classMS   map[string][]float64
	busy, cpu time.Duration
	timed     int
	// per-round throughput and CPU per op, whose medians resist a slow
	// patch of the shared machine better than pooled means
	roundOpsPerS, roundCPUms []float64
	mark                     struct {
		busy, cpu time.Duration
		timed     int
	}
	attempted  int
	failed     int
	errors     []string
	fps        []uint64
	dd         []float64
	viewsLive  []float64
	heapLiveMB []float64
	rssMB      []float64

	allocBytes, numGC, pauseNs uint64

	// per-layer counts
	kinds        [3]int // route kinds of reads
	routeHits    int
	routeReads   int
	viewsScanned []float64
	rows         []float64
	maint        eve.Metrics
	batches      int
	stats        []evolve.Stats

	respBytes            []float64
	reused, conns        int
	serverCPU, clientCPU time.Duration
}

func newPass(traced bool) *pass {
	p := &pass{classMS: map[string][]float64{}}
	if traced {
		p.tr = newTracer()
	}
	return p
}

func (p *pass) nextOp() int { p.ops++; return p.ops }

// record adds one timed op.
func (p *pass) record(k opKind, class string, synced bool, d, cpu time.Duration) {
	p.lat[k] = append(p.lat[k], ms(d))
	if k == opChange && synced {
		p.changeMS = append(p.changeMS, ms(d))
	}
	key := k.String()
	if class != "" {
		key += "/" + class
	}
	p.classMS[key] = append(p.classMS[key], ms(d))
	p.busy += d
	p.cpu += cpu
	p.timed++
}

// endRound closes a round's throughput and CPU-per-op sample.
func (p *pass) endRound() {
	ops := float64(p.timed - p.mark.timed)
	p.roundOpsPerS = append(p.roundOpsPerS, ratio(ops, (p.busy-p.mark.busy).Seconds()))
	p.roundCPUms = append(p.roundCPUms, ratio(ms(p.cpu-p.mark.cpu), ops))
	p.mark.busy, p.mark.cpu, p.mark.timed = p.busy, p.cpu, p.timed
}

func (p *pass) fail(msg string) {
	p.failed++
	if len(p.errors) < 10 {
		p.errors = append(p.errors, msg)
	}
}

// check counts one verification; a mismatch is a failed op.
func (p *pass) check(err error) {
	p.attempted++
	if err != nil {
		p.fail("verify: " + err.Error())
	}
}

// run executes rounds [0, n) of the workload at seed into p.
func run(ctx context.Context, wl *workload, seed int64, n int, cfg config, p *pass) error {
	for r := 0; r < n; r++ {
		ops, err := wl.gen(roundSeed(seed, r), wl.opsPerRound)
		if err != nil {
			return err
		}
		if wl.http {
			err = serveRound(ctx, wl, cfg, ops, p)
		} else {
			err = inprocRound(ctx, wl, ops, p)
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		p.endRound()
	}
	if !wl.http {
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		p.rssMB = append(p.rssMB, rss)
	}
	return nil
}

// roundSeed derives round r's generator seed from the run seed.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r)*7919 + 1 }

// rounds is how many rounds a -seconds budget buys: a pure function of
// the budget, never of the clock, so equal arguments do equal work.
func rounds(wl *workload, seconds int) int {
	return max(3, int(float64(seconds)/wl.roundSeconds+0.5))
}

// config locates the run's files.
type config struct {
	eved string // path of the eved binary
	out  string // directory for reports
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics of an untraced pass, reported by
// every workload.
func e2eMetrics(p *pass) map[string]metric {
	read, write := p.lat[opRead], p.lat[opWrite]
	return map[string]metric{
		"setup_s":       {median(p.setupS), "s"},
		"ops_per_s":     {median(p.roundOpsPerS), "1/s"},
		"read_p50_ms":   {quantile(read, 0.5), "ms"},
		"read_p90_ms":   {quantile(read, 0.9), "ms"},
		"write_p50_ms":  {quantile(write, 0.5), "ms"},
		"write_p90_ms":  {quantile(write, 0.9), "ms"},
		"cpu_ms_per_op": {median(p.roundCPUms), "ms"},
		"rss_peak_mb":   {median(p.rssMB), "MiB"},
	}
}

// layerMetrics are the per-layer metrics: spans and counts from the traced
// pass t, plus the figures of the untraced pass u that not every workload
// has (so they cannot be end-to-end metrics) or that tracing would distort.
func layerMetrics(u, t *pass) map[string]metric {
	ls := t.tr.analyse()
	p50 := func(l layer) float64 { return median(ls.durUS[l]) }
	self := func(l layer) float64 { return median(ls.selfUS[l]) }
	timed := float64(u.timed)
	var st evolve.Stats
	for _, s := range t.stats {
		st.Changes += s.Changes
		st.Groups += s.Groups
		st.Skipped += s.Skipped
		st.Searches += s.Searches
		st.SearchesShared += s.SearchesShared
	}
	nRounds := float64(len(t.stats))
	kinds := float64(t.kinds[0] + t.kinds[1] + t.kinds[2])
	out := map[string]metric{
		"esql.parse_us":               {p50(lParse), "us"},
		"route.decide_us":             {p50(lRouteMiss), "us"},
		"route.cache_hit_ratio":       {ratio(float64(t.routeHits), float64(t.routeReads)), "ratio"},
		"route.views_scanned":         {mean(t.viewsScanned), "count"},
		"route.share_extent":          {ratio(float64(t.kinds[eve.RouteViewExtent]), kinds), "ratio"},
		"route.share_residual":        {ratio(float64(t.kinds[eve.RouteViewResidual]), kinds), "ratio"},
		"route.share_base":            {ratio(float64(t.kinds[eve.RouteBase]), kinds), "ratio"},
		"exec.execute_us":             {p50(lExec), "us"},
		"exec.rows_per_read":          {mean(t.rows), "count"},
		"maintain.batch_us":           {p50(lUpdates), "us"},
		"maintain.view_us":            {p50(lMaintain), "us"},
		"maintain.self_us":            {self(lUpdates), "us"},
		"maintain.messages_per_batch": {ratio(float64(t.maint.Messages), float64(t.batches)), "count"},
		"maintain.bytes_per_batch":    {ratio(float64(t.maint.Bytes), float64(t.batches)), "B"},
		"maintain.io_per_batch":       {ratio(float64(t.maint.IO), float64(t.batches)), "count"},
		"evolve.skip_us":              {p50(lEvolveSkip), "us"},
		"evolve.skip_ratio":           {ratio(float64(st.Skipped), float64(st.Changes)), "ratio"},
		"evolve.groups":               {ratio(float64(st.Groups), nRounds), "count"},
		"evolve.searches":             {ratio(float64(st.Searches), nRounds), "count"},
		"evolve.searches_shared":      {ratio(float64(st.SearchesShared), nRounds), "count"},
		"sync.view_us":                {p50(lSync), "us"},
		"sync.candidates_mean":        {mean(t.tr.candidates), "count"},
		"adopt.view_us":               {p50(lAdopt), "us"},
		"evolve.self_us":              {self(lEvolve), "us"},
		"http.ttfb_us":                {p50(lTTFB), "us"},
		"http.body_us":                {p50(lBody), "us"},
		"http.resp_bytes_mean":        {mean(t.respBytes), "B"},
		"http.conn_reused_ratio":      {ratio(float64(t.reused), float64(t.conns)), "ratio"},
		"http.server_cpu_ms_per_op":   {ratio(ms(u.serverCPU), timed), "ms"},
		"http.client_cpu_ms_per_op":   {ratio(ms(u.clientCPU), timed), "ms"},
		"runtime.alloc_kb_per_op":     {ratio(float64(u.allocBytes)/1024, timed), "KiB"},
		"runtime.gc_per_kop":          {ratio(float64(u.numGC)*1000, timed), "count"},
		"runtime.gc_pause_ms_per_kop": {ratio(float64(u.pauseNs)/1e6*1000, timed), "ms"},
		"trace.overhead_ratio":        {ratio(median(u.roundOpsPerS), median(t.roundOpsPerS)), "ratio"},
		"tail.read_p99_ms":            {quantile(u.lat[opRead], 0.99), "ms"},
		"tail.write_p99_ms":           {quantile(u.lat[opWrite], 0.99), "ms"},
		"change_p50_ms":               {quantile(u.changeMS, 0.5), "ms"},
		"change_p90_ms":               {quantile(u.changeMS, 0.9), "ms"},
		"rewrite_dd_mean":             {mean(u.dd), "ratio"},
		"views_live":                  {mean(u.viewsLive), "count"},
		"heap_live_mb":                {median(u.heapLiveMB), "MiB"},
		"failed_ops_ratio":            {ratio(float64(u.failed+t.failed), float64(u.attempted+t.attempted)), "ratio"},
	}
	return out
}

// classBreakdown renders p50/p90 per op class, so a multi-modal latency
// shows which input class each mode comes from.
func classBreakdown(p *pass) []string {
	keys := make([]string, 0, len(p.classMS))
	for k := range p.classMS {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		xs := p.classMS[k]
		out = append(out, fmt.Sprintf("%-55s n=%-6d p50=%9.3fms p90=%9.3fms", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9)))
	}
	return out
}

// runRecord is the workload record written as each run's report.
type runRecord struct {
	Workload     string            `json:"workload"`
	Why          string            `json:"why"`
	Seed         int64             `json:"seed"`
	Seconds      int               `json:"seconds"`
	Trace        bool              `json:"trace"`
	Rounds       int               `json:"rounds"`
	OpsPerRound  int               `json:"ops_per_round"`
	WarmupOps    int               `json:"warmup_ops"`
	Shape        any               `json:"shape"`
	OpMix        map[string]int    `json:"op_mix_round0"`
	LayerToE2E   map[string]string `json:"layer_to_end_to_end"`
	Fingerprints []string          `json:"fingerprints"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Revision     string            `json:"revision"`
	Metrics      map[string]metric `json:"metrics"`
	Breakdown    []string          `json:"op_class_breakdown"`
	Attribution  []string          `json:"layer_time_share,omitempty"`
	Errors       []string          `json:"errors,omitempty"`
}

func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget; fixes the number of rounds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	eved := flag.String("eved", ".bench_build/eved", "eved binary (serve-http)")
	out := flag.String("out", ".bench_build", "directory for the run report")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (route-adhoc, evolve-replay, serve-http), -seconds ≥ 1, -trace 0|1\n")
		os.Exit(2)
	}
	ok, err := benchmark(wl, *seed, *seconds, *trace == 1, config{eved: *eved, out: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// benchmark runs one invocation and prints its report; it returns false
// when any answer was wrong or any op failed.
func benchmark(wl *workload, seed int64, seconds int, traced bool, cfg config) (bool, error) {
	ctx := context.Background()
	n := rounds(wl, seconds)
	u := newPass(false)
	var t *pass
	var metrics map[string]metric
	if traced {
		// The traced run replays the same rounds as an untraced pass of
		// half the budget, so the two compare like for like and the run
		// stays within the budget.
		n = max(2, (n+1)/2)
		if err := run(ctx, wl, seed, n, cfg, u); err != nil {
			return false, err
		}
		t = newPass(true)
		if err := run(ctx, wl, seed, n, cfg, t); err != nil {
			return false, err
		}
		metrics = layerMetrics(u, t)
		for i := range u.fps {
			if u.fps[i] != t.fps[i] {
				t.fail(fmt.Sprintf("round %d: traced fingerprint %016x differs from untraced %016x", i, t.fps[i], u.fps[i]))
			}
		}
	} else {
		if err := run(ctx, wl, seed, n, cfg, u); err != nil {
			return false, err
		}
		metrics = e2eMetrics(u)
	}
	attempted, failed := u.attempted, u.failed
	errs := u.errors
	if t != nil {
		attempted += t.attempted
		failed += t.failed
		errs = append(errs, t.errors...)
	}

	ops0, err := wl.gen(roundSeed(seed, 0), wl.opsPerRound)
	if err != nil {
		return false, err
	}
	mix := map[string]int{}
	for _, o := range ops0 {
		mix[o.kind.String()]++
	}
	var shape any = map[string]any{"churn": wl.params, "rows_per_relation": wl.rows}
	if wl.http {
		shape = map[string]any{"eved_churn": evedMirrorParams, "rows_per_relation": evedRows, "shards": 1, "clients": 1, "keep_alive": true}
	}
	rec := runRecord{
		Workload: wl.name, Why: wl.why, Seed: seed, Seconds: seconds, Trace: traced,
		Rounds: n, OpsPerRound: wl.opsPerRound, WarmupOps: wl.warmup, Shape: shape, OpMix: mix,
		LayerToE2E: wl.layers, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: revision(), Metrics: metrics,
		Breakdown: classBreakdown(u), Errors: errs,
	}
	if t != nil {
		rec.Attribution = t.tr.analyse().attribution()
	}
	for _, f := range u.fps {
		rec.Fingerprints = append(rec.Fingerprints, fmt.Sprintf("%016x", f))
	}

	fmt.Printf("workload %s seed %d: %d rounds × %d ops (%d warm-up), nproc %d, GOMAXPROCS %d, %s\n",
		wl.name, seed, n, wl.opsPerRound, wl.warmup, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Printf("fingerprint %s\n", strings.Join(rec.Fingerprints, " "))
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	if traced {
		fmt.Println("op-class breakdown (untraced pass):")
		for _, l := range rec.Breakdown {
			fmt.Println("  " + l)
		}
		fmt.Println("layer time share of all op time (traced pass):")
		for _, l := range rec.Attribution {
			fmt.Println("  " + l)
		}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", e)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return false, err
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	if err := os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("report-%s-%s-%d.json", wl.name, mode, seed)), b, 0o644); err != nil {
		return false, err
	}
	correct := failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}
