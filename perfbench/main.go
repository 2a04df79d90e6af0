// Command perfbench is the repository benchmark: it runs one pinned fleet
// workload in a closed loop and prints its end-to-end metrics (--trace 0)
// or its per-layer metrics from a traced pass (--trace 1). README.md lists
// the workloads, the metrics and which layer moves which metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it give the run
// environment, the workload identity check and every metric with its
// sample count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
)

// procStart is when the process started, as near as Go code can see it.
var procStart = time.Now()

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

type named struct{ name, unit string }

// endToEnd and perLayer are the metrics each mode emits, in print order;
// BENCHMARK.json lists the same names and units.
var endToEnd = []named{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"ns_per_frame", "ns"},
	{"run_ms_p50", "ms"},
	{"run_ms_p99", "ms"},
	{"allocs_per_run", "count"},
	{"peak_rss_mb", "MB"},
	{"miss_rate", "ratio"},
	{"energy_mj_per_frame", "mJ"},
}

var perLayer = []named{
	{"fail_ratio", "ratio"},
	{"fleet.generate.ns_per_run", "ns"},
	{"sim.self_s", "s"},
	{"sim.ns_per_frame", "ns"},
	{"sim.frames", "count"},
	{"sim.events", "count"},
	{"sim.reset.ns_per_run", "ns"},
	{"rtm.self_s", "s"},
	{"rtm.share", "ratio"},
	{"rtm.ns_per_fresh_plan", "ns"},
	{"rtm.plans", "count"},
	{"rtm.elided", "count"},
	{"rtm.cache_hits", "count"},
	{"rtm.fresh_plans", "count"},
	{"rtm.elide_ratio", "ratio"},
	{"rtm.cache_hit_ratio", "ratio"},
	{"rtm.controller_calls", "count"},
	{"fleet.result.s", "s"},
	{"fleet.stream.encode.ns_per_record", "ns"},
	{"fleet.stream.bytes_per_run", "B"},
	{"fleet.stream.decode.ns_per_record", "ns"},
	{"fleet.stream.replay.ns_per_record", "ns"},
	{"fleet.merge.s", "s"},
	{"fleet.aggregate.s", "s"},
	{"fleet.aggregate.ns_per_sample", "ns"},
	{"fleet.train.s", "s"},
	{"fleet.train.runs", "count"},
	{"fleet.train.states", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.explained_ratio", "ratio"},
	{"trace.residual_s", "s"},
	{"trace.overhead_pct", "%"},
	{"fleet.runner.w2_speedup", "ratio"},
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median and
	// the last one's inputs are measured.
	setups int
	// size overrides the pinned workload count (self-tests); the identity
	// check applies only at the pinned size.
	size int
	// dir holds the run's scratch files: streams and the learned table.
	dir string
	// spansPath, when set, receives the last traced pass's spans.
	spansPath string
	log       io.Writer
	corrupt   func(path string) error
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: fleet-mix, replan-heavy or shard-stream")
		seed         = flag.Int64("seed", 1, "seed for the run order and the stream tear point")
		seconds      = flag.Float64("seconds", 10, "how long the timed phase runs")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		record       = flag.String("record-identity", "", "write every workload's identity to this file and exit")
	)
	flag.Parse()
	if err := mainErr(*workloadName, *seed, *seconds, *trace, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int, record string) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if record != "" {
		return recordIdentities(record, dir)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	opts := options{
		workload: name, seed: seed, seconds: seconds, trace: trace == 1, setups: 7,
		dir: dir, log: os.Stdout,
	}
	if opts.trace {
		opts.spansPath = filepath.Join(".bench_build", "perfbench-spans-"+name+".ndjson")
	}
	res, err := run(opts)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run executes one benchmark run and returns its result line.
func run(o options) (result, error) {
	sp, err := findSpec(o.workload)
	if err != nil {
		return result{}, err
	}
	pinnedSize := o.size == 0
	if !pinnedSize {
		sp.workloads = o.size
		if sp.train != nil {
			t := *sp.train
			t.Workloads = o.size
			sp.train = &t
		}
	}
	fmt.Fprintf(o.log, "env: go=%s GOMAXPROCS=%d nproc=%d workers=1 workload=%s seed=%d seconds=%g trace=%t\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), o.workload, o.seed, o.seconds, o.trace)

	var p *prepared
	var setupS, genS, trainS []float64
	for i := 0; i < max(o.setups, 1); i++ {
		t0 := time.Now()
		if p, err = sp.setup(o.dir, o.seed); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, p.genS)
		trainS = append(trainS, p.trainS)
	}
	p.corrupt = o.corrupt
	fmt.Fprintf(o.log, "setup: %d repetitions, median %.4fs; process start to first timed pass %.4fs\n",
		len(setupS), median(setupS), time.Since(procStart).Seconds())

	var res result
	var got counters
	if o.trace {
		res, got = traceRun(o, p, median(genS), median(trainS))
	} else {
		res, got = timedRun(o, p, median(setupS))
	}
	if pinnedSize {
		ids, err := pinned()
		if err != nil {
			return result{}, err
		}
		want, ok := ids[sp.name]
		diffs := []string{"no pinned identity"}
		if ok {
			diffs = want.diff(identityOf(p, got), o.trace)
		}
		if len(diffs) > 0 {
			res.Correct = false
			fmt.Fprintf(o.log, "identity: workload changed: %s\n", strings.Join(diffs, "; "))
		} else {
			fmt.Fprintf(o.log, "identity: matches the pinned workload (%d runs, %d frames, %d plans, %d elided)\n",
				got.Runs, got.Frames, got.Plans, got.Elided)
		}
	}
	return res, nil
}

// timedRun runs untraced passes back to back until o.seconds have passed
// (at least one), then checks their outputs.
//
// Every pass runs the same scenarios in the same order, so each run's host
// time is sampled once per pass. The timing metrics charge each run, and
// the pass's work outside the runs (aggregation, read-back, merge), the
// least of its samples: host speed on a shared machine drifts by up to 2x
// over seconds, and the least time is the estimate of a run's cost that
// such drift moves least. The per-pass medians are printed beside them.
func timedRun(o options, p *prepared, setupS float64) (result, counters) {
	var (
		first                passOut // the first pass, its result slices dropped
		work                 counters
		missRate, energy     float64
		runs, failed, passes int
		mallocs              uint64
		runMs                []float64 // least time of each run of the pass, by position
		restMs               float64   // least time of the pass outside its runs
		passRate             []float64
		failures             []string
	)
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < o.seconds {
		u := p.pass()
		if passes == 0 {
			work, missRate, energy = countersOf(u, 0), missRateOf(u.results), energyPerFrame(u.results)
			first = passOut{runs: u.runs, report: u.report, err: u.err}
			runMs = append([]float64(nil), u.runMs...)
			restMs = math.Inf(1)
		}
		n, why := passFailures(u, first.report)
		passes++
		runs += u.runs
		mallocs += u.mallocs
		rest := float64(u.wallNs) / 1e6
		for i, ms := range u.runMs {
			rest -= ms
			if i < len(runMs) {
				runMs[i] = min(runMs[i], ms)
			}
		}
		restMs = min(restMs, rest)
		passRate = append(passRate, float64(u.runs)/(float64(u.wallNs)/1e9))
		failed += n
		failures = append(failures, why...)
	}
	rss := peakRSSMB()
	if p.sharded && first.err == nil {
		ref, err := p.reference()
		if err != nil || string(ref) != string(first.report) {
			failures = append(failures, "merged shard report differs from one Aggregate over the same scenarios run in one process")
			failed = runs
		}
	}
	reportFailures(o.log, failures)

	passMs := restMs
	for _, ms := range runMs {
		passMs += ms
	}
	n := len(runMs)
	fmt.Fprintf(o.log, "timed: %d passes of %d runs in %.3fs; per-pass median %.2f runs/s\n",
		passes, first.runs, time.Since(start).Seconds(), median(passRate))
	fmt.Fprintf(o.log, "run_ms_p50 is nearest rank %d and run_ms_p99 rank %d of %d runs, each its least of %d samples\n",
		nearestRank(n, 0.50), nearestRank(n, 0.99), n, passes)
	fmt.Fprintf(o.log, "fail_ratio %g (%d of %d runs)\n", ratio(float64(failed), float64(runs)), failed, runs)
	values := map[string]float64{
		"setup_s":             setupS,
		"runs_per_s":          ratio(float64(first.runs), passMs/1e3),
		"ns_per_frame":        ratio(passMs*1e6, float64(work.Frames)),
		"allocs_per_run":      float64(mallocs) / float64(runs),
		"peak_rss_mb":         rss,
		"miss_rate":           missRate,
		"energy_mj_per_frame": energy,
		"run_ms_p50":          percentile(runMs, 0.50),
		"run_ms_p99":          percentile(runMs, 0.99),
	}
	return finish(o.log, endToEnd, values, runs, failed), work
}

// traceRun alternates an untraced and a traced pass until o.seconds have
// passed (at least one pair) and reports each per-layer metric as its
// median over the pairs.
func traceRun(o options, p *prepared, genS, trainS float64) (result, counters) {
	var (
		samples         = map[string][]float64{}
		attempted, fail int
		firstReport     []byte
		work            counters
		events, pairs   int
		failures        []string
		last            *layers
	)
	start := time.Now()
	for pairs == 0 || time.Since(start).Seconds() < o.seconds {
		u := p.pass()
		if pairs == 0 {
			firstReport, work = u.report, countersOf(u, 0)
		}
		n, why := passFailures(u, firstReport)
		l := p.tracedPass(u, o.dir)
		pairs++
		attempted += u.runs + l.runs
		fail += n + l.failed
		failures = append(failures, why...)
		failures = append(failures, l.failures...)
		events = l.events
		last = l
		for k, v := range layerValues(p, l, u) {
			samples[k] = append(samples[k], v)
		}
	}
	w2 := workerSpeedup(p)
	reportFailures(o.log, failures)
	if o.spansPath != "" && last != nil {
		if err := last.writeSpans(o.spansPath); err != nil {
			fmt.Fprintf(o.log, "spans: %v\n", err)
		}
	}
	values := map[string]float64{
		"fail_ratio":                ratio(float64(fail), float64(attempted)),
		"fleet.generate.ns_per_run": genS * 1e9 / float64(len(p.scenarios)),
		"fleet.train.s":             trainS,
		"fleet.train.runs":          float64(p.trainRep.Runs),
		"fleet.train.states":        float64(p.trainRep.States),
		"fleet.runner.w2_speedup":   w2,
	}
	for k, v := range samples {
		values[k] = median(v)
	}
	fmt.Fprintf(o.log, "traced: %d pairs of an untraced and a traced pass; per-layer values are medians over them\n", pairs)
	work.Events = events
	return finish(o.log, perLayer, values, attempted, fail), work
}

// layerValues computes one traced pass's per-layer metrics; u is the
// untraced pass it re-ran.
func layerValues(p *prepared, l *layers, u passOut) map[string]float64 {
	fresh := l.plans.Plans - l.plans.Elided - l.plans.CacheHits
	self := l.selfNs()
	return map[string]float64{
		"sim.self_s":                        float64(l.simSelfNs()) / 1e9,
		"sim.ns_per_frame":                  ratio(float64(l.simSelfNs()), float64(l.frames)),
		"sim.frames":                        float64(l.frames),
		"sim.events":                        float64(l.events),
		"sim.reset.ns_per_run":              ratio(float64(l.simResetNs), float64(l.runs)),
		"rtm.self_s":                        float64(l.rtmNs()) / 1e9,
		"rtm.share":                         ratio(float64(l.rtmNs()), float64(l.wallNs)),
		"rtm.ns_per_fresh_plan":             ratio(float64(l.rtmNs()), float64(fresh)),
		"rtm.plans":                         float64(l.plans.Plans),
		"rtm.elided":                        float64(l.plans.Elided),
		"rtm.cache_hits":                    float64(l.plans.CacheHits),
		"rtm.fresh_plans":                   float64(fresh),
		"rtm.elide_ratio":                   ratio(float64(l.plans.Elided), float64(l.plans.Plans)),
		"rtm.cache_hit_ratio":               ratio(float64(l.plans.CacheHits), float64(l.plans.Plans-l.plans.Elided)),
		"rtm.controller_calls":              float64(l.ctrlCalls),
		"fleet.result.s":                    float64(l.resultNs) / 1e9,
		"fleet.stream.encode.ns_per_record": ratio(float64(l.encodeNs), float64(l.encodeRecs)),
		"fleet.stream.bytes_per_run":        ratio(float64(l.streamBytes), float64(l.encodeRecs)),
		"fleet.stream.decode.ns_per_record": ratio(float64(l.decodeNs), float64(l.decodeRecs)),
		"fleet.stream.replay.ns_per_record": ratio(float64(l.replayNs), float64(l.replayRecs)),
		"fleet.merge.s":                     float64(l.mergeNs) / 1e9,
		"fleet.aggregate.s":                 float64(l.aggregateNs) / 1e9,
		"fleet.aggregate.ns_per_sample":     ratio(float64(l.aggregateNs), float64(l.aggregateSamples)),
		"runtime.gc_cycles":                 float64(l.gcCycles),
		"runtime.gc_pause_s":                float64(l.gcPauseNs) / 1e9,
		"trace.wall_s":                      float64(l.wallNs) / 1e9,
		"trace.explained_ratio":             ratio(float64(self), float64(l.wallNs)),
		"trace.residual_s":                  float64(l.wallNs-self) / 1e9,
		"trace.overhead_pct":                100 * ratio(float64(l.wallNs-u.wallNs), float64(u.wallNs)),
	}
}

// workerSpeedup times one Runner.Run over the pass's scenarios at one
// worker and at two, and returns the ratio. At one worker Run takes its
// serial path, so this is the only place the worker pool is exercised.
func workerSpeedup(p *prepared) float64 {
	scenarios := p.ordered
	if p.sharded {
		scenarios = p.executedScenarios()
	}
	var ns [2]int64
	for i := range ns {
		r := &fleet.Runner{Workers: i + 1, DropLatencies: !p.keepLatencies}
		t0 := time.Now()
		r.Run(scenarios)
		ns[i] = time.Since(t0).Nanoseconds()
	}
	return ratio(float64(ns[0]), float64(ns[1]))
}

// passFailures applies the output checks to one untraced pass: the pass
// completed, its report is byte-identical to the first pass's, and every
// result is error-free and conserves frames. A pass-level failure fails
// every run of the pass.
func passFailures(u passOut, firstReport []byte) (int, []string) {
	if u.err != nil {
		return u.runs, []string{u.err.Error()}
	}
	if string(u.report) != string(firstReport) {
		return u.runs, []string{"report differs from the first pass's"}
	}
	var n int
	var why []string
	for _, r := range u.results {
		if msg := badResult(r); msg != "" {
			n++
			why = append(why, fmt.Sprintf("run %d: %s", r.ID, msg))
		}
	}
	return min(n, u.runs), why
}

func reportFailures(w io.Writer, failures []string) {
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(w, "check failed: ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
}

func countersOf(u passOut, events int) counters {
	c := counters{Runs: u.runs, Events: events, Elided: u.plans.Elided}
	for _, r := range u.executed {
		c.Frames += r.Released
		c.Plans += r.Plans
	}
	return c
}

// missRateOf is (missed + dropped) / released over every DNN frame of the
// fleet.
func missRateOf(results []fleet.Result) float64 {
	var bad, released int
	for _, r := range results {
		bad += r.Missed + r.Dropped
		released += r.Released
	}
	return ratio(float64(bad), float64(released))
}

// energyPerFrame is the fleet's modelled energy per completed frame.
func energyPerFrame(results []fleet.Result) float64 {
	var energy float64
	var completed int
	for _, r := range results {
		energy += r.EnergyMJ
		completed += r.Completed
	}
	return ratio(energy, float64(completed))
}

// finish prints the metrics in order and builds the result line.
func finish(w io.Writer, names []named, values map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v := values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, v, m.unit)
	}
	return res
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// recordIdentities runs every workload once at its pinned size, untraced
// and traced, and writes their identities to path.
func recordIdentities(path, dir string) error {
	out := map[string]identity{}
	for _, sp := range specs() {
		p, err := sp.setup(dir, 1)
		if err != nil {
			return err
		}
		u := p.pass()
		if n, why := passFailures(u, u.report); n > 0 {
			return errors.New(strings.Join(why, "; "))
		}
		l := p.tracedPass(u, dir)
		if l.failed > 0 {
			return errors.New(strings.Join(l.failures, "; "))
		}
		out[sp.name] = identityOf(p, countersOf(u, l.events))
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
