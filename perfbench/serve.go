package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	eve "repro"
	"repro/internal/scenario"
)

// eveloadQueries is eveload's default query rotation; each trailing "> N"
// constant is replaced by a seeded one in [0, 200).
var eveloadQueries = []string{
	"SELECT A1, A2 FROM W1 WHERE A1 > 10",
	"SELECT A3 FROM W2 WHERE A3 > 40",
	"SELECT A1 FROM W2",
	"SELECT A2, A4 FROM W1 WHERE A2 > 75",
}

// genServeHTTP builds one round of serve-http: eveload's 4-query rotation
// with seeded constants, and every 20th op (5%) a single-tuple insert into
// W1 with a key no other insert uses.
func genServeHTTP(seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	reads := 0
	for i := 0; i < n; i++ {
		if i%20 == 19 {
			t := eve.Tuple{eve.Int(int64(1_000_000 + i))}
			for len(t) < 7 {
				t = append(t, eve.Int(int64(rng.Intn(500))))
			}
			ops = append(ops, op{kind: opWrite, class: "family", updates: []eve.Update{eve.InsertTuple("W1", t)}})
			continue
		}
		q := eveloadQueries[reads%len(eveloadQueries)]
		if j := strings.LastIndex(q, "> "); j >= 0 {
			q = fmt.Sprintf("%s> %d", q[:j], rng.Intn(200))
		}
		ops = append(ops, op{kind: opRead, sql: q, verify: reads%verifyEvery == 0})
		reads++
	}
	return ops, nil
}

// evedMirrorParams is the space eved builds with its defaults: the mirror
// the benchmark checks eved's answers against is built from it.
var evedMirrorParams = scenario.ChurnParams{
	Families: 2, TwinsPerFamily: 4, Width: 6, Donors: 2, Spares: 4, SpareAttrs: 4,
	Changes: 1, Seed: 1, ReplaceableViews: true,
}

const evedRows = 100

// daemon is one running eved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result
}

// addrWriter collects eved's log and signals the listen address it logs.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(b)
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, "eved serving on "); i >= 0 {
			rest := s[i+len("eved serving on "):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				w.addr <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(b), nil
}

// startEved runs eved on a free loopback port with its default warehouse.
// Its churn stream holds one change on a day-long interval, so no
// capability change lands while the benchmark runs.
func startEved(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-changes", "1", "-interval", "24h")
	w := &addrWriter{addr: make(chan string, 1)}
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("eved exited before listening: %v: %s", err, w.buf.String())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("eved did not start listening within 60s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("eved at %s never became ready", d.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks eved to drain and waits for it to exit, killing it if it does
// not within 10s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-d.done
	}
}

// queryReply is the part of eved's /query answer the benchmark checks.
type queryReply struct {
	Route    string     `json:"route"`
	Rows     [][]string `json:"rows"`
	Checksum string     `json:"checksum"`
}

// serveRound starts a fresh eved (the set-up time sample), drives one
// round's ops over one keep-alive connection, and checks the answers
// against an in-process mirror of eved's warehouse.
func serveRound(ctx context.Context, wl *workload, cfg config, ops []op, p *pass) error {
	start := time.Now()
	d, err := startEved(cfg.eved)
	if err != nil {
		return err
	}
	defer d.stop()
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	pid := d.cmd.Process.Pid

	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}

	fp := newFingerprint()
	sums := make([]uint64, len(ops))
	var c0, s0 time.Duration
	for i, o := range ops {
		if i == wl.warmup {
			if s0, err = procCPU(pid); err != nil {
				return err
			}
			c0 = cpuTime()
		}
		id := p.nextOp()
		var opStart int64
		if p.tr != nil {
			opStart = p.tr.begin(id)
		}
		t0 := time.Now()
		body, err := p.do(ctx, client, d.base, o)
		dur := time.Since(t0)
		if p.tr != nil {
			p.tr.add(lOp, opStart, p.tr.now())
		}
		p.attempted++
		if err != nil {
			p.fail(fmt.Sprintf("op %d (%s): %v", i, o.kind, err))
			continue
		}
		if o.kind == opRead {
			var r queryReply
			if err := json.Unmarshal(body, &r); err != nil {
				p.fail(fmt.Sprintf("op %d: bad /query reply: %v", i, err))
				continue
			}
			sum, err := strconv.ParseUint(r.Checksum, 16, 64)
			if err != nil {
				p.fail(fmt.Sprintf("op %d: bad checksum %q", i, r.Checksum))
				continue
			}
			sums[i] = sum
			fp.u64(sum)
			fp.str(r.Route)
			fp.u64(uint64(len(r.Rows)))
			if p.tr != nil {
				p.respBytes = append(p.respBytes, float64(len(body)))
				for k := eve.RouteBase; k <= eve.RouteViewResidual; k++ {
					if k.String() == r.Route {
						p.kinds[k]++
					}
				}
			}
		}
		if i >= wl.warmup {
			p.record(o.kind, o.class, false, dur, 0)
		}
	}
	c1 := cpuTime()
	s1, err := procCPU(pid)
	if err != nil {
		return err
	}
	p.clientCPU += c1 - c0
	p.serverCPU += s1 - s0
	p.cpu += c1 - c0 + s1 - s0
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return err
	}
	p.rssMB = append(p.rssMB, rss)

	resp, err := client.Get(d.base + "/")
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var st struct {
		VersionSeqs []uint64 `json:"versionSeqs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	for _, s := range st.VersionSeqs {
		fp.u64(s)
	}
	p.fps = append(p.fps, fp.h)
	return p.checkMirror(ctx, ops, sums)
}

// do sends one op and returns the drained response body. In a traced pass
// it splits the request at the first response byte and counts connection
// reuse.
func (p *pass) do(ctx context.Context, client *http.Client, base string, o op) ([]byte, error) {
	method, target, body := http.MethodGet, base+"/query?q="+url.QueryEscape(o.sql), io.Reader(nil)
	if o.kind == opWrite {
		type upd struct {
			Op    string  `json:"op"`
			Rel   string  `json:"rel"`
			Tuple []int64 `json:"tuple"`
		}
		var req struct {
			Updates []upd `json:"updates"`
		}
		for _, u := range o.updates {
			t := make([]int64, len(u.Tuple))
			for i, v := range u.Tuple {
				t[i] = v.AsInt()
			}
			// genServeHTTP generates inserts only.
			req.Updates = append(req.Updates, upd{Op: "insert", Rel: u.Rel, Tuple: t})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		method, target, body = http.MethodPost, base+"/update", bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return nil, err
	}
	var wrote, first int64
	if p.tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(c httptrace.GotConnInfo) {
				p.conns++
				if c.Reused {
					p.reused++
				}
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = p.tr.now() },
			GotFirstResponseByte: func() { first = p.tr.now() },
		}))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if p.tr != nil {
		end := p.tr.now()
		p.tr.add(lTTFB, wrote, first)
		p.tr.add(lBody, first, end)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, target, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// checkMirror replays the round on an in-process warehouse built the way
// eved builds its own and checks every sampled read's checksum against
// the base-route answer at the same point of the sequence. It also
// measures the route cache the same reads meet there, which eved does not
// expose.
func (p *pass) checkMirror(ctx context.Context, ops []op, sums []uint64) error {
	m, err := buildSystem(ctx, evedMirrorParams, evedRows, nil)
	if err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	seen := map[*eve.Route]bool{}
	var seenAt *eve.Version
	for i, o := range ops {
		if o.kind == opWrite {
			if _, err := m.ApplyUpdates(ctx, o.updates); err != nil {
				return fmt.Errorf("mirror: %w", err)
			}
			continue
		}
		v := m.Snapshot()
		if p.tr != nil {
			q, err := eve.ParseQuery(o.sql)
			if err != nil {
				return err
			}
			r, err := v.RouteDef(q)
			if err != nil {
				return err
			}
			if seenAt != v {
				clear(seen)
				seenAt = v
			}
			p.routeReads++
			if seen[r] {
				p.routeHits++
			}
			seen[r] = true
			p.viewsScanned = append(p.viewsScanned, float64(len(v.Views())))
		}
		if o.verify {
			p.check(verifyBase(ctx, readSample{v: v, sql: o.sql, sum: sums[i]}))
		}
	}
	return nil
}
