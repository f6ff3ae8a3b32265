// Command perfbench is the repository benchmark. It runs one workload
// against the public API of the wbsn modules, checks the outputs, and
// prints a human-readable report followed by one JSON result line:
//
//	perfbench --workload ward|cohort|holter --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// run; with --trace 1 it carries the per-layer metrics of a traced run,
// which times every call the benchmark makes into each layer. Any failed
// correctness check makes the command exit non-zero. README.md in this
// directory documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run shares with the harness: its
// arguments, the correctness tally, and the metrics it reports.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	// attempted counts the workload's operations; failed those that
	// failed or produced wrong output, plus one per failed check.
	attempted int
	failed    int
	metrics   map[string]metric
}

// set records a metric.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts a failed correctness check and reports why.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

// endToEnd lists the end-to-end metrics an untraced run reports in its
// JSON line; anything else it measured is printed only. The gated tail
// is p90: on the 2-core reference host, whose speed drifts by up to 2x
// over seconds, p99 follows the host's slowest spell of the run and
// spreads by a third or more from run to run, while p90 stays within
// about a tenth. p99 is still measured and printed.
var endToEnd = []string{"setup_s", "rtf", "lat_p50_ms", "lat_p90_ms", "beat_se_pct", "heap_mb"}

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload bypasses reads 0.
var layerMetrics = [][2]string{
	{"cs.decode_ms_p50", "ms"},
	{"cs.iters_per_win", "count"},
	{"gateway.engine_ms_p50", "ms"},
	{"gateway.engine_ms_p99", "ms"},
	{"netgw.wire_ms_p50", "ms"},
	{"netgw.wire_ms_p99", "ms"},
	{"netgw.frames_per_win", "count"},
	{"netgw.allocs_per_win", "count"},
	{"link.codec_us_per_win", "us"},
	{"link.wire_bytes_per_win", "count"},
	{"link.arq_us_per_win", "us"},
	{"link.attempts_per_win", "count"},
	{"gateway.consume_ms_per_win", "ms"},
	{"ecg.synth_ms_per_session", "ms"},
	{"core.cs.push_ns_per_sample", "ns"},
	{"core.delineation.push_ns_per_sample", "ns"},
	{"core.classification.push_ns_per_sample", "ns"},
	{"core.af.push_ns_per_sample", "ns"},
	{"core.delineation.process_ns_per_sample", "ns"},
	{"core.classification.process_ns_per_sample", "ns"},
	{"core.af.process_ns_per_sample", "ns"},
	{"core.allocs_per_ecg_s", "count"},
	{"fleet.round_s", "s"},
	{"fleet.self_ms_per_patient", "ms"},
	{"fleet.heap_bytes_per_patient", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"prd_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"ward":   runWard,
	"cohort": runCohort,
	"holter": runHolter,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ward, cohort or holter")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 25, "measured time the workload is sized for, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced end-to-end pass")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload ward|cohort|holter --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: *seconds, traced: *trace == 1, metrics: map[string]metric{}}
	if b.traced {
		for _, m := range layerMetrics {
			b.set(m[0], m[1], 0)
		}
	}
	fmt.Printf("perfbench: workload %s, seed %d, %.0f s, trace %d, GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if b.attempted < 1 {
		b.attempted = 1
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	printMetrics(res)
	if !b.traced {
		res.Metrics = map[string]metric{}
		for _, n := range endToEnd {
			res.Metrics[n] = b.metrics[n]
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints every metric by name with its unit, plus the
// error rate the JSON line carries as failed/attempted.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-42s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-42s %14.6g %s (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "fraction", res.Failed, res.Attempted)
}

// timeSetup runs build reps times and returns the last result plus the
// median build time in seconds; every earlier result is released, so
// only one copy is live while the workload measures.
func timeSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(out)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	return out, median(times), nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection empties the sync.Pool victim caches the first one
// filled, so pooled scratch does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerRow is one line of a traced run's accounting table.
type layerRow struct {
	layer string
	self  float64
}

// printAccounting prints a workload's layer self-time table against the
// end-to-end total it must account for, and records the unattributed
// share. unit names what total and the rows measure.
func printAccounting(b *bench, title, unit string, total float64, rows []layerRow) {
	fmt.Printf("layer accounting (%s), %s:\n", title, unit)
	sum := 0.0
	for _, r := range rows {
		sum += r.self
		fmt.Printf("  %-32s %12.4f  %6.2f%%\n", r.layer, r.self, pct(r.self, total))
	}
	un := total - sum
	fmt.Printf("  %-32s %12.4f  %6.2f%%\n", "unattrib.", un, pct(un, total))
	fmt.Printf("  %-32s %12.4f  100.00%%\n", "total", total)
	b.set("bench.unattributed_pct", "%", pct(un, total))
}

// latency is a latency sample's summary in milliseconds.
type latency struct{ p50, p90, p99 float64 }

// latencyStats summarises a latency sample (ms), prints it with its
// size and the highest percentile that has minTail samples beyond it,
// and checks that no sample is missing.
func latencyStats(b *bench, label string, lat []float64, missing int) latency {
	b.check(missing == 0, "%s: %d windows never acknowledged", label, missing)
	s := append([]float64(nil), lat...)
	l := latency{percentile(s, 50), percentile(s, 90), percentile(s, 99)}
	fmt.Printf("%s latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d samples (%d beyond p99; highest percentile with >=%d beyond: p%g)\n",
		label, l.p50, l.p90, l.p99, len(s), tailBeyond(len(s), 99), minTail, highestPercentile(len(s)))
	return l
}

// setLatency records a workload's end-to-end latency metrics.
func (b *bench) setLatency(l latency) {
	b.set("lat_p50_ms", "ms", l.p50)
	b.set("lat_p90_ms", "ms", l.p90)
	b.set("lat_p99_ms", "ms", l.p99)
}

// pct returns 100*part/whole, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// overhead returns how much slower the traced rate is than the
// untraced one, in percent of the untraced rate.
func overhead(untraced, traced float64) float64 {
	if untraced == 0 || math.IsNaN(untraced) {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}
