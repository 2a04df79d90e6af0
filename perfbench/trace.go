package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// The traced pass re-runs a pass's scenarios through the public pieces
// workload.RunEngineOpts is built from (rtm.NewPolicy, rtm.NewManager,
// workload.NewScenarioController, sim.Engine.Reset and Run), with a
// benchmark-owned sim.Controller between the engine and the scenario
// controller, so the time Run spends in the runtime manager can be split
// from the time it spends in the simulator. The persistence layer is timed
// around its public calls. Spans stay in memory until the run ends.

// span is one timed interval of the traced pass, in ns since the pass
// started. Spans of one scenario run share its Run ID; the rtm span of a
// run folds all of that run's controller calls into one interval of their
// summed duration, since one span per call would cost more than the
// ~1 µs/frame loop it measures.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"` // scenario ID, -1 for pass-level spans
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Calls  int    `json:"calls,omitempty"`
}

// tracedCtrl times the scenario controller's work inside Engine.Run:
// every OnTick, and the OnEvent kinds on which the manager replans. The
// other events (job completions, misses, drops, migrations) are only
// counted: timing each would swamp the loop being measured.
type tracedCtrl struct {
	inner   *workload.ScenarioController
	ns      int64
	calls   int
	counted int
}

func (c *tracedCtrl) OnTick(e *sim.Engine) {
	t0 := time.Now()
	c.inner.OnTick(e)
	c.ns += time.Since(t0).Nanoseconds()
	c.calls++
}

func (c *tracedCtrl) OnEvent(e *sim.Engine, ev sim.Event) {
	switch ev.Kind {
	case sim.EvAppStart, sim.EvAppStop, sim.EvThermalAlarm, sim.EvClusterFail, sim.EvClusterRepair:
		t0 := time.Now()
		c.inner.OnEvent(e, ev)
		c.ns += time.Since(t0).Nanoseconds()
		c.calls++
	default:
		c.inner.OnEvent(e, ev)
		c.counted++
	}
}

// layers accumulates one traced pass's per-layer times and counts.
type layers struct {
	runs                     int
	rtmSetupNs               int64 // policy, manager and controller construction
	ctrlNs                   int64 // controller calls inside Engine.Run
	simRunNs                 int64 // Engine.Run and Report, controller calls included
	simResetNs               int64
	resultNs                 int64 // turning a run's report into its outcome
	encodeNs, decodeNs       int64
	replayNs, mergeNs        int64
	aggregateNs              int64
	aggregateInPass          bool // the aggregate span lies inside the traced wall time
	encodeRecs, decodeRecs   int
	replayRecs, streamBytes  int
	aggregateSamples         int
	frames, events           int
	ctrlCalls, countedEvents int
	plans                    rtm.PlanStats
	wallNs                   int64
	gcCycles                 uint32
	gcPauseNs                uint64
	failed                   int // runs whose traced outcome differs from the untraced result
	failures                 []string
	spans                    []span
	start                    time.Time
	eng                      *sim.Engine
	cache                    *rtm.PlanCache
}

func (l *layers) since(t time.Time) int64 { return t.Sub(l.start).Nanoseconds() }

func (l *layers) span(name string, run int, parent string, t0, t1 time.Time) {
	l.spans = append(l.spans, span{Name: name, Run: run, Parent: parent, Start: l.since(t0), End: l.since(t1)})
}

// outcome is what a traced run is checked on against the untraced Result.
type outcome struct {
	released, completed, missed, dropped int
	energyMJ                             float64
	plans                                int
	meanLat, p95Lat, maxLat              float64
}

func (o outcome) matches(r fleet.Result) bool {
	return o.released == r.Released && o.completed == r.Completed && o.missed == r.Missed &&
		o.dropped == r.Dropped && o.energyMJ == r.EnergyMJ && o.plans == r.Plans &&
		o.meanLat == r.MeanLatencyS && o.p95Lat == r.P95LatencyS && o.maxLat == r.MaxLatencyS
}

// run executes one scenario the way fleet's runner does, timing each layer.
func (l *layers) run(s fleet.Scenario) (outcome, error) {
	script := s.Script
	t0 := time.Now()
	pol, err := rtm.NewPolicy(script.Policy)
	if err != nil {
		return outcome{}, err
	}
	mgr := rtm.NewManager(script.Reqs)
	mgr.SetPolicy(pol)
	mgr.SetPlanCache(l.cache)
	actions := script.Actions
	if len(script.Faults) > 0 {
		actions = append(append([]workload.Action(nil), script.Actions...), faultActions(script.Faults)...)
	}
	ctrl := &tracedCtrl{inner: workload.NewScenarioController(mgr, actions)}
	plat := hw.Catalog()[s.Platform]
	if plat == nil {
		return outcome{}, fmt.Errorf("unknown platform %q", s.Platform)
	}
	cfg := sim.Config{Platform: plat, Apps: script.Apps, Controller: ctrl, TickS: fleet.TickS, LogEvents: true}
	t1 := time.Now()
	if l.eng == nil {
		l.eng, err = sim.New(cfg)
	} else {
		err = l.eng.Reset(cfg)
	}
	t2 := time.Now()
	if err == nil {
		err = l.eng.Run(script.EndS)
	}
	if err != nil {
		l.eng = nil
		return outcome{}, err
	}
	rep := l.eng.Report()
	t3 := time.Now()
	o := outcome{energyMJ: rep.TotalEnergyMJ, plans: mgr.Plans()}
	for _, a := range rep.Apps {
		if a.Kind == sim.KindDNN {
			o.released += a.Released
			o.completed += a.Completed
			o.missed += a.Missed
			o.dropped += a.Dropped
		}
	}
	var lat []float64
	var sum float64
	for _, ev := range rep.Events {
		if ev.Kind == sim.EvJobComplete || ev.Kind == sim.EvDeadlineMiss {
			lat = append(lat, ev.LatencyS)
			sum += ev.LatencyS
		}
	}
	if len(lat) > 0 {
		o.meanLat = sum / float64(len(lat))
		o.p95Lat = percentile(lat, 0.95)
		o.maxLat = lat[len(lat)-1]
	}
	t4 := time.Now()

	l.runs++
	l.rtmSetupNs += t1.Sub(t0).Nanoseconds()
	l.ctrlNs += ctrl.ns
	l.simResetNs += t2.Sub(t1).Nanoseconds()
	l.simRunNs += t3.Sub(t2).Nanoseconds()
	l.resultNs += t4.Sub(t3).Nanoseconds()
	l.frames += o.released
	l.events += len(rep.Events)
	l.ctrlCalls += ctrl.calls
	l.countedEvents += ctrl.counted
	l.plans.Add(mgr.PlanStats())
	l.span("rtm.setup", s.ID, "", t0, t1)
	l.span("sim.reset", s.ID, "", t1, t2)
	l.span("sim.run", s.ID, "", t2, t3)
	l.spans = append(l.spans, span{Name: "rtm.control", Run: s.ID, Parent: "sim.run",
		Start: l.since(t2), End: l.since(t2) + ctrl.ns, Calls: ctrl.calls})
	l.span("fleet.result", s.ID, "", t3, t4)
	return o, nil
}

// faultActions turns fault windows into fail/repair actions exactly as
// workload.RunEngineOpts does, so traced runs see the same script.
func faultActions(faults []workload.FaultWindow) []workload.Action {
	out := make([]workload.Action, 0, 2*len(faults))
	for _, fw := range faults {
		cluster := fw.Cluster
		out = append(out, workload.Action{
			AtS:  fw.FailS,
			Name: "fault-" + cluster,
			Do:   func(e *sim.Engine, m *rtm.Manager) { _ = e.SetClusterOnline(cluster, false) },
		})
		if fw.RepairS > 0 {
			out = append(out, workload.Action{
				AtS:  fw.RepairS,
				Name: "repair-" + cluster,
				Do:   func(e *sim.Engine, m *rtm.Manager) { _ = e.SetClusterOnline(cluster, true) },
			})
		}
	}
	return out
}

// tracedPass re-runs the scenarios of untraced pass u with tracing on and
// checks every run's outcome against u's result for it.
func (p *prepared) tracedPass(u passOut, dir string) *layers {
	l := &layers{cache: rtm.NewPlanCache(rtm.DefaultPlanCacheCap)}
	byID := make(map[int]fleet.Result, len(u.executed))
	for _, r := range u.executed {
		byID[r.ID] = r
	}
	scenarios := p.ordered
	if p.sharded {
		scenarios = p.executedScenarios()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.start = time.Now()
	for _, s := range scenarios {
		o, err := l.run(s)
		if err != nil {
			l.fail(fmt.Sprintf("run %d: %v", s.ID, err))
		} else if !o.matches(byID[s.ID]) {
			l.fail(fmt.Sprintf("run %d: traced outcome %+v differs from the untraced result", s.ID, o))
		}
	}
	if p.sharded {
		if err := p.tracedPersistence(l, u, dir); err != nil {
			l.failures = append(l.failures, err.Error())
			l.failed = l.runs
		}
	} else {
		t0 := time.Now()
		report, err := json.Marshal(fleet.Aggregate(p.cfg.Seed, u.results))
		t1 := time.Now()
		l.aggregateNs, l.aggregateInPass = t1.Sub(t0).Nanoseconds(), true
		l.aggregateSamples = aggregateSamples(u.results)
		l.span("fleet.aggregate", -1, "", t0, t1)
		if err != nil || string(report) != string(u.report) {
			l.failures = append(l.failures, "traced pass: aggregate report differs from the untraced pass")
			l.failed = l.runs
		}
	}
	l.wallNs = time.Since(l.start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	l.gcCycles = m1.NumGC - m0.NumGC
	l.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if p.sharded {
		// Merge already aggregated inside the traced wall time; time
		// Aggregate on its own after it.
		t0 := time.Now()
		fleet.Aggregate(p.cfg.Seed, u.results)
		l.aggregateNs = time.Since(t0).Nanoseconds()
		l.aggregateSamples = aggregateSamples(u.results)
	}
	return l
}

func (l *layers) fail(msg string) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, msg)
	}
}

// tracedPersistence times the stream layer on the untraced pass's results:
// encode writes both shards as complete streams, replay is ResumeShard
// over an already complete stream (it replays every record and runs
// nothing), decode reads both back with ReadShardFile, and Merge combines
// them, its report checked against the untraced pass's.
func (p *prepared) tracedPersistence(l *layers, u passOut, dir string) error {
	var paths [2]string
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("traced-shard%d.ndjson", i))
		t0 := time.Now()
		n, err := writeStream(paths[i], fleet.StreamHeader{Config: p.cfg, Total: len(p.scenarios), Lo: p.lo[i], Hi: p.hi[i]}, u.results[p.lo[i]:p.hi[i]])
		t1 := time.Now()
		if err != nil {
			return err
		}
		l.encodeNs += t1.Sub(t0).Nanoseconds()
		l.encodeRecs += p.hi[i] - p.lo[i]
		l.streamBytes += n
		l.span("fleet.stream.encode", -1, "", t0, t1)
	}
	r := &fleet.Runner{Workers: 1}
	t0 := time.Now()
	_, err := r.ResumeShard(paths[1], p.cfg, p.workloads, 1, len(paths))
	t1 := time.Now()
	if err != nil {
		return err
	}
	if ran := r.PlanCacheStats().Plans; ran != 0 {
		return fmt.Errorf("replaying a complete stream ran scenarios (%d plans)", ran)
	}
	l.replayNs = t1.Sub(t0).Nanoseconds()
	l.replayRecs = p.hi[1] - p.lo[1]
	l.span("fleet.stream.replay", -1, "", t0, t1)
	var shards [2]fleet.ShardResult
	for i, path := range paths {
		t0 := time.Now()
		s, err := fleet.ReadShardFile(path)
		t1 := time.Now()
		if err != nil {
			return err
		}
		shards[i] = s
		l.decodeNs += t1.Sub(t0).Nanoseconds()
		l.decodeRecs += len(s.Results)
		l.span("fleet.stream.decode", -1, "", t0, t1)
	}
	t0 = time.Now()
	rep, _, err := fleet.Merge(shards[0], shards[1])
	t1 = time.Now()
	if err != nil {
		return err
	}
	l.mergeNs = t1.Sub(t0).Nanoseconds()
	l.span("fleet.merge", -1, "", t0, t1)
	report, err := json.Marshal(rep)
	if err != nil || string(report) != string(u.report) {
		return fmt.Errorf("traced pass: merged report differs from the untraced pass")
	}
	return nil
}

// writeStream writes results as a complete NDJSON shard stream at path and
// returns the bytes written.
func writeStream(path string, hdr fleet.StreamHeader, results []fleet.Result) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sw, err := fleet.NewStreamWriter(f, hdr)
	if err != nil {
		return 0, err
	}
	for _, r := range results {
		if err := sw.Append(r); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return int(fi.Size()), f.Close()
}

// aggregateSamples counts the values Aggregate folds in: one row per
// result plus every raw latency sample it pools.
func aggregateSamples(results []fleet.Result) int {
	n := len(results)
	for _, r := range results {
		n += len(r.Latencies)
	}
	return n
}

// selfNs is the sum of the layers' self times inside the traced wall time.
func (l *layers) selfNs() int64 {
	n := l.rtmNs() + l.simSelfNs() + l.simResetNs + l.resultNs +
		l.encodeNs + l.replayNs + l.decodeNs + l.mergeNs
	if l.aggregateInPass {
		n += l.aggregateNs
	}
	return n
}

// rtmNs is the runtime manager's self time: its construction plus every
// controller call, actuation calls back into the engine included.
func (l *layers) rtmNs() int64 { return l.rtmSetupNs + l.ctrlNs }

// simSelfNs is Engine.Run's time minus the controller calls it made.
func (l *layers) simSelfNs() int64 { return l.simRunNs - l.ctrlNs }

// writeSpans writes the pass's spans as NDJSON.
func (l *layers) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return f.Close()
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
