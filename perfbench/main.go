// Command perfbench is the repository's benchmark: one workload per
// process, a closed loop with one client driving an in-process server,
// end-to-end metrics from an untraced run, per-layer metrics from a
// traced one. See README.md for the workloads and metrics, and run it
// through run.py, which builds it:
//
//	python3 perfbench/run.py --workload release-batch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is
// their median, and the last set-up is the one measured.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 30, "CPU seconds the timed loop runs")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for span files")
	flag.Parse()

	var wl *workloadDef
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	host := hostRecord()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# why: %s\n", wl.why)
	fmt.Fprintf(out, "# host: cpu=%q nproc=%s gomaxprocs=%s go=%s rev=%s\n",
		host["cpu"], host["nproc"], host["gomaxprocs"], host["go"], host["rev"])

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(out, wl, *seed, *seconds, *traceDir, host)
	} else {
		res, err = runUntraced(out, wl, *seed, *seconds)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	// A metric a failed run could not measure (no design completed, no
	// RSS sample) is reported as 0 and fails the run, so the result line
	// stays valid JSON.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(out, "# %s could not be measured\n", name)
			m.Value = 0
			res.Metrics[name] = m
			res.Failed++
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// hostRecord is the host fingerprint printed with every run.
func hostRecord() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"rev":        rev,
	}
}

// setUp sets the workload up setupReps times and keeps the last one. It
// returns each set-up's process CPU seconds and wall seconds. With a
// tracer, each set-up is a traced op (ids 0..setupReps-1).
func setUp(wl *workloadDef, seed int64, t *tracer) (r runner, cpuS, wallS []float64, err error) {
	for i := range setupReps {
		if r != nil {
			r.close()
		}
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not collected on the next one's time.
		runtime.GC()
		w0, c0 := time.Now(), cpuTime()
		r, err = wl.setup(seed, t, i)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		cpuS = append(cpuS, (cpuTime() - c0).Seconds())
		wallS = append(wallS, time.Since(w0).Seconds())
	}
	return r, cpuS, wallS, nil
}

// wallCap is the wall time a timed loop may take, as a multiple of its
// CPU budget.
const wallCap = 2

// loop is what one closed-loop phase measured.
type loop struct {
	latMs   []float64 // wall time per operation
	cpuMs   []float64 // process CPU time per operation
	rssMB   []float64 // resident set, sampled every rssEvery
	units   int
	failed  int
	wall    time.Duration
	allocKB []float64 // heap KiB allocated per unit, one entry per operation
	cpu     time.Duration
	ops     int
	opErrs  []string
	host    hostTicks
}

// closedLoop runs op back to back until the process has spent seconds of
// CPU time in the loop, starting no operation after that. The budget is
// CPU time, not wall time, so the number of operations, and with it the
// tail's percentile, does not depend on how much CPU time the hypervisor
// steals from this host. Under heavy steal the loop also stops after
// wallCap times seconds of wall time, which bounds how long a run takes.
func closedLoop(seconds float64, op func(i int) (int, int, error)) loop {
	var l loop
	// Room for the samples of the longest loop the wall cap allows, so the
	// sampler does not grow the slice, and allocate, while it runs.
	l.rssMB = make([]float64, 0, int(wallCap*seconds*float64(time.Second)/float64(rssEvery))+1000)
	var ms runtime.MemStats
	cpu0 := cpuTime()
	stop, done := make(chan struct{}), make(chan struct{})
	go sampleRSS(&l.rssMB, stop, done)
	started := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	wallBudget := time.Duration(wallCap * float64(budget))
	host0 := readHostTicks()
	for i := 0; cpuTime()-cpu0 < budget && time.Since(started) < wallBudget; i++ {
		// ReadMemStats stops the world but is exact; it runs outside the
		// timed interval.
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0, c0 := time.Now(), cpuTime()
		units, failed, err := op(i)
		cpu, wall := cpuTime()-c0, time.Since(t0)
		runtime.ReadMemStats(&ms)
		l.allocKB = append(l.allocKB, float64(ms.TotalAlloc-a0)/1024/float64(max(units, 1)))
		l.cpuMs = append(l.cpuMs, float64(cpu)/float64(time.Millisecond))
		l.latMs = append(l.latMs, float64(wall)/float64(time.Millisecond))
		l.units += units
		l.failed += failed
		l.ops++
		if err != nil && len(l.opErrs) < 5 {
			l.opErrs = append(l.opErrs, err.Error())
		}
	}
	l.wall = time.Since(started)
	l.host = readHostTicks().minus(host0)
	close(stop)
	<-done
	l.cpu = cpuTime() - cpu0
	return l
}

// cpuUtil is the share of the host's CPU time, less what the hypervisor
// stole, that the process used: CPU ÷ ((wall − stolen) × nproc), with the
// stolen time summed over the CPUs. Stolen time is in neither part, so
// the figure moves when the process leaves cores idle, as when a
// parallel step runs serially or waits on a lock, and not with the
// steal.
func (l loop) cpuUtil() float64 {
	return l.cpu.Seconds() / (l.wall.Seconds()*float64(runtime.NumCPU()) - l.host.steal)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssEvery is the resident-set sampling period of a timed loop.
const rssEvery = 10 * time.Millisecond

// sampleRSS appends the resident set in MiB to *out every rssEvery until
// stop is closed, and closes done when it has returned.
func sampleRSS(out *[]float64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	buf := make([]byte, 128)
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return
	}
	defer f.Close()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		n, err := f.ReadAt(buf, 0)
		if n == 0 && err != nil {
			return
		}
		if pages, ok := secondField(buf[:n]); ok {
			*out = append(*out, float64(pages)*float64(os.Getpagesize())/(1<<20))
		}
	}
}

// secondField parses the second space-separated decimal field of a
// /proc/self/statm line (resident pages) without allocating, so the
// sampler does not add to alloc_kb_per_op.
func secondField(b []byte) (int64, bool) {
	i := bytes.IndexByte(b, ' ')
	if i < 0 {
		return 0, false
	}
	var v int64
	digits := 0
	for _, c := range b[i+1:] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
		digits++
	}
	return v, digits > 0
}

// vmHWMMB is the process's lifetime peak resident set (VmHWM) in MiB.
func vmHWMMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

func runUntraced(out *bufio.Writer, wl *workloadDef, seed int64, seconds float64) (result, error) {
	r, setupCPU, setupWall, err := setUp(wl, seed, nil)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	l := closedLoop(seconds, func(int) (int, int, error) { return r.op() })
	checkAttempted, checkFailed, notes := r.check()

	tl, wallTail := tailOf(l.cpuMs), tailOf(l.latMs)
	m := map[string]metric{
		"setup_s":            {median(setupCPU), "s"},
		"ops_per_cpu_s":      {float64(l.units) / l.cpu.Seconds(), "1/s"},
		"request_cpu_p50_ms": {median(l.cpuMs), "ms"},
		"peak_rss_mb":        {rssPeak(l.rssMB), "MiB"},
		"alloc_kb_per_op":    {median(l.allocKB), "KiB"},
		"error_ratio":        {r.errorRatio(), "ratio"},
		"cpu_util":           {l.cpuUtil(), "ratio"},
	}
	fmt.Fprintf(out, "# timed: %d requests, %d %ss in %.3fs wall, %.3fs CPU; the hypervisor stole %.1f%% of the host's busy CPU time\n",
		l.ops, l.units, wl.unit, l.wall.Seconds(), l.cpu.Seconds(), 100*l.host.stealShare())
	fmt.Fprintf(out, "# cpu_util: %.4g CPU s of %.4g s (%d CPUs x %.4g s wall - %.4g s stolen); host idle %.4g s, other busy %.4g s\n",
		l.cpu.Seconds(), l.wall.Seconds()*float64(runtime.NumCPU())-l.host.steal, runtime.NumCPU(), l.wall.Seconds(),
		l.host.steal, l.host.idle, l.host.busy-l.host.steal-l.cpu.Seconds())
	// The tail is printed, not reported as a metric: on a host whose
	// steal moves between 5% and 57% from run to run, it spread by 19% to
	// 45% across runs of the same code (see README.md).
	fmt.Fprintf(out, "# request CPU tail: %.4g ms, the %s\n", tl.value, tl)
	fmt.Fprintf(out, "# wall clock, for reference: %.5g %ss/s, request p50 %.4g ms, tail %.4g ms (%s)\n",
		float64(l.units)/l.wall.Seconds(), wl.unit, median(l.latMs), wallTail.value, wallTail)
	fmt.Fprintf(out, "# peak_rss_mb: p95 of %d resident-set samples, one every %v of the timed loop; VmHWM of the whole process %.4g MiB\n",
		len(l.rssMB), rssEvery, vmHWMMB())
	fmt.Fprintf(out, "# set-up CPU s: %s (wall s: %s)\n", fmtList(setupCPU), fmtList(setupWall))
	for _, n := range notes {
		fmt.Fprintf(out, "# check: %s\n", n)
	}
	for _, e := range l.opErrs {
		fmt.Fprintf(out, "# operation error: %s\n", e)
	}
	printMetrics(out, m)
	attempted := l.units + checkAttempted
	failed := l.failed + checkFailed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// hostTicks is the host's CPU time from /proc/stat, in seconds, summed
// over its CPUs: busy (everything but idle and iowait, steal included),
// the part of it the hypervisor stole, and idle (with iowait).
type hostTicks struct{ busy, steal, idle float64 }

// clockTicks is the unit of /proc/stat (USER_HZ, 100 on Linux).
const clockTicks = 100

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t hostTicks
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		x /= clockTicks
		switch i {
		case 3, 4: // idle, iowait
			t.idle += x
		case 7:
			t.steal = x
			t.busy += x
		case 8, 9: // guest time is already counted in user and nice
		default:
			t.busy += x
		}
	}
	return t
}

func (t hostTicks) minus(t0 hostTicks) hostTicks {
	return hostTicks{busy: t.busy - t0.busy, steal: t.steal - t0.steal, idle: t.idle - t0.idle}
}

// stealShare is the share of the host's busy CPU time that was stolen.
func (t hostTicks) stealShare() float64 {
	if t.busy <= 0 {
		return 0
	}
	return t.steal / t.busy
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(out *bufio.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
