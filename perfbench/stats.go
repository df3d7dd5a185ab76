package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fingerprint folds the work a run did into one FNV-1a hash: equal inputs
// must produce equal fingerprints, whatever the timing.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fingerprint) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

// interval is a half-open span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers.
// Children may overlap one another (sync and adopt run on a worker pool),
// so they are merged before summing.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads the user plus system CPU of process pid from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads VmHWM, the peak resident set size, of process pid
// ("self" for this process) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
