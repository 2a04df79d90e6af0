package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// This file is the white-box safety net under the dirty-tracked observable
// caches: every cached value must equal a from-scratch recompute at every
// event and every controller tick of a scenario that churns all the
// invalidation sources (app starts/stops, job activity on every cluster,
// accelerator companion load, DVFS switches, migrations with downtime,
// cluster fail/repair, ambient and level changes), and PlanEpoch must move
// exactly when planning-relevant state does.

// knobStep is one scripted actuation the auditor performs at its first
// tick at or after atS.
type knobStep struct {
	atS  float64
	name string
	do   func(e *Engine) error
}

// cacheAuditor is a controller that cross-checks every cache against its
// compute function at every event and every tick, while injecting knob
// churn at fixed times.
type cacheAuditor struct {
	t       *testing.T
	steps   []knobStep
	fired   int // steps[:fired] have run
	ticks   int
	events  int
	audited int
}

func (c *cacheAuditor) OnTick(e *Engine) {
	c.ticks++
	for c.fired < len(c.steps) && e.Now() >= c.steps[c.fired].atS {
		st := c.steps[c.fired]
		c.fired++
		if err := st.do(e); err != nil {
			c.t.Errorf("t=%.2f %s: %v", e.Now(), st.name, err)
		}
	}
	c.audit(e)
}

// OnEvent audits mid-handle: a controller may read the monitors from any
// event, so the caches must already be exact when the event is emitted,
// not only once the engine's post-event refresh has run.
func (c *cacheAuditor) OnEvent(e *Engine, ev Event) {
	c.events++
	c.audit(e)
}

// audit reads every cached observable (filling the caches), then compares
// the cached values against direct recomputes.
func (c *cacheAuditor) audit(e *Engine) {
	c.audited++
	for _, cs := range e.clusterList {
		util := e.clusterUtilOf(cs)
		pow := e.clusterPowerMW(cs)
		share := e.acceleratorDNNShare(cs)
		active := e.anyActiveDNN(cs)
		if want := e.computeAcceleratorDNNShare(cs.c.Name); share != want {
			c.t.Errorf("t=%.2f %s: cached share %v, recompute %v", e.Now(), cs.c.Name, share, want)
		}
		if want := e.computeAnyActiveDNN(cs.c.Name); active != want {
			c.t.Errorf("t=%.2f %s: cached active %v, recompute %v", e.Now(), cs.c.Name, active, want)
		}
		// An offline cluster runs nothing and draws nothing.
		wantUtil, wantPow := 0.0, 0.0
		if cs.online {
			wantUtil = e.computeClusterUtil(cs)
			wantPow = cs.c.BusyPowerMW(cs.c.OPPs[cs.oppIdx], cs.c.Cores, wantUtil)
		}
		if util != wantUtil {
			c.t.Errorf("t=%.2f %s: cached util %v, recompute %v", e.Now(), cs.c.Name, util, wantUtil)
		}
		if pow != wantPow {
			c.t.Errorf("t=%.2f %s: cached power %v, recompute %v", e.Now(), cs.c.Name, pow, wantPow)
		}
	}
	for _, a := range e.appList {
		if a.Kind != KindDNN || !a.started || a.stopped {
			continue
		}
		rate := e.jobRate(a)
		if want := e.computeJobRate(a); rate != want {
			c.t.Errorf("t=%.2f %s: cached rate %v, recompute %v", e.Now(), a.Name, rate, want)
		}
	}
}

// cacheDNN is a DNN app for the cache audit: a 7 M-MAC model whose full
// size fits the flagship NPU.
func cacheDNN(name string, level int, periodS, startS float64, at Placement) App {
	prof := perf.UniformProfile("cachetest", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	return App{
		Name: name, Kind: KindDNN, Profile: prof, Level: level,
		PeriodS: periodS, ModelBytes: 7 << 20, StartS: startS, Placement: at,
	}
}

// cacheAuditCase is one platform of the audit: apps on every cluster and a
// knob script that touches every invalidation source.
type cacheAuditCase struct {
	plat  *hw.Platform
	apps  []App
	steps []knobStep
}

// cacheAuditCases covers the three catalog platforms' companion shapes:
// odroid has CPU clusters only; jetson's gpu induces load on a57;
// flagship's gpu and npu both induce load on cpu-lit. Every cluster hosts
// a DNN app at some point, and every companion also hosts work of its own,
// so a job finishing there audits the companion load an accelerator job
// induces.
func cacheAuditCases() []cacheAuditCase {
	return []cacheAuditCase{
		{
			plat: hw.OdroidXU3(),
			apps: []App{
				// The paper's reference model: the 7 M-MAC audit model
				// would take seconds per frame on these cores.
				dnnApp("dnn1", "a15", 2, 4, 0.100),
				dnnApp("dnn2", "a7", 2, 3, 0.150),
				{Name: "bg", Kind: KindBackground, Util: 0.5, StartS: 2, StopS: 11,
					Placement: Placement{Cluster: "a7", Cores: 1}},
			},
			steps: []knobStep{
				{3, "SetOPP", func(e *Engine) error { return e.SetOPP("a15", 0) }},
				{6, "Migrate", func(e *Engine) error { return e.Migrate("dnn1", Placement{Cluster: "a7", Cores: 1}) }},
				{8, "SetAmbient", func(e *Engine) error { e.SetAmbient(40); return nil }},
				{9, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("a15", false) }},
				{10, "SetLevel", func(e *Engine) error { return e.SetLevel("dnn2", 2) }},
				{11, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("a15", true) }},
				{12, "Migrate", func(e *Engine) error { return e.Migrate("dnn1", Placement{Cluster: "a15", Cores: 4}) }},
			},
		},
		{
			plat: hw.JetsonNano(),
			apps: []App{
				cacheDNN("dnn1", 4, 0.040, 0, Placement{Cluster: "gpu"}),
				cacheDNN("dnn2", 3, 0.050, 1, Placement{Cluster: "a57", Cores: 2}),
				{Name: "vr", Kind: KindRender, Util: 0.5, StartS: 4, StopS: 11,
					Placement: Placement{Cluster: "gpu"}},
				{Name: "bg", Kind: KindBackground, Util: 0.3,
					Placement: Placement{Cluster: "a57", Cores: 1}},
			},
			steps: []knobStep{
				{3, "SetOPP", func(e *Engine) error { return e.SetOPP("gpu", 0) }},
				{6, "Migrate", func(e *Engine) error { return e.Migrate("dnn2", Placement{Cluster: "gpu"}) }},
				{8, "SetAmbient", func(e *Engine) error { e.SetAmbient(40); return nil }},
				{9, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("gpu", false) }},
				{10, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("gpu", true) }},
				{10.5, "Migrate", func(e *Engine) error { return e.Migrate("dnn1", Placement{Cluster: "gpu"}) }},
				{11, "SetLevel", func(e *Engine) error { return e.SetLevel("dnn1", 2) }},
			},
		},
		{
			plat: hw.FlagshipSoC(),
			apps: []App{
				cacheDNN("dnn1", 4, 0.040, 0, Placement{Cluster: "npu"}),
				cacheDNN("dnn2", 3, 1.0/60, 2, Placement{Cluster: "cpu-big", Cores: 4}),
				cacheDNN("dnn3", 2, 0.050, 0, Placement{Cluster: "gpu"}),
				cacheDNN("dnn4", 2, 0.070, 1, Placement{Cluster: "cpu-lit", Cores: 1}),
				{Name: "vr", Kind: KindRender, Util: 0.6, StartS: 4, StopS: 11,
					Placement: Placement{Cluster: "gpu"}},
				{Name: "bg", Kind: KindBackground, Util: 0.3,
					Placement: Placement{Cluster: "cpu-lit", Cores: 2}},
			},
			steps: []knobStep{
				{3, "SetOPP", func(e *Engine) error { return e.SetOPP("cpu-big", 0) }},
				// NPU → GPU: a model reload with real downtime, so
				// blockedUntil predicates flip mid-window and again when
				// the window ends.
				{6, "Migrate", func(e *Engine) error { return e.Migrate("dnn1", Placement{Cluster: "gpu"}) }},
				{8, "SetAmbient", func(e *Engine) error { e.SetAmbient(40); return nil }},
				{9, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("npu", false) }},
				{10, "SetLevel", func(e *Engine) error { return e.SetLevel("dnn1", 2) }},
				{11, "SetClusterOnline", func(e *Engine) error { return e.SetClusterOnline("npu", true) }},
				{12, "Migrate", func(e *Engine) error { return e.Migrate("dnn3", Placement{Cluster: "npu"}) }},
			},
		},
	}
}

// TestCachedObservablesMatchRecompute drives each catalog platform through
// every cache-invalidation source and asserts, event by event and tick by
// tick, that the cached cluster util/power/share/active and per-app job
// rates are indistinguishable from recomputing them from scratch.
func TestCachedObservablesMatchRecompute(t *testing.T) {
	for _, tc := range cacheAuditCases() {
		t.Run(tc.plat.Name, func(t *testing.T) {
			aud := &cacheAuditor{t: t, steps: tc.steps}
			e, err := New(Config{
				Platform:   tc.plat,
				Apps:       tc.apps,
				Controller: aud,
				TickS:      0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(14); err != nil {
				t.Fatal(err)
			}
			if aud.fired != len(tc.steps) {
				t.Fatalf("only %d of %d knob steps fired", aud.fired, len(tc.steps))
			}
			if aud.ticks == 0 || aud.events == 0 {
				t.Fatalf("auditor saw %d ticks and %d events; want both > 0", aud.ticks, aud.events)
			}
			for _, a := range e.appList {
				if a.Kind == KindDNN && a.completed == 0 {
					t.Errorf("%s completed no job: its cluster's caches were never churned", a.Name)
				}
			}
		})
	}
}

// epochProbe samples PlanEpoch mid-run and performs the knob steps at
// fixed ticks, all within a single Run (hStart events are re-pushed per
// Run call, so incremental Runs would re-fire starts and muddy the test).
type epochProbe struct {
	t          *testing.T
	atQuiet    uint64 // epoch at t≈2, after dnn1+bg started
	atQuiet2   uint64 // epoch at t≈5, after 3 s of pure job churn
	afterStart uint64 // epoch at t≈7, after dnn2's t=6 start
	didKnobs   bool
}

func (p *epochProbe) OnEvent(e *Engine, ev Event) {}

func (p *epochProbe) OnTick(e *Engine) {
	now := e.Now()
	switch {
	case p.atQuiet == 0 && now >= 2:
		p.atQuiet = e.PlanEpoch()
		if p.atQuiet == 0 {
			p.t.Error("app starts must move PlanEpoch")
		}
	case p.atQuiet2 == 0 && now >= 5:
		// dnn1 released/completed/missed frames for 3 s: pure job churn.
		p.atQuiet2 = e.PlanEpoch()
		if p.atQuiet2 != p.atQuiet {
			p.t.Errorf("job churn moved PlanEpoch %d -> %d", p.atQuiet, p.atQuiet2)
		}
	case p.afterStart == 0 && now >= 7:
		p.afterStart = e.PlanEpoch()
		if p.afterStart <= p.atQuiet2 {
			p.t.Error("app start at t=6 did not move PlanEpoch")
		}
		p.knobSteps(e)
		p.didKnobs = true
	}
}

func (p *epochProbe) knobSteps(e *Engine) {
	step := func(name string, f func() error, wantMove bool) {
		before := e.PlanEpoch()
		if err := f(); err != nil {
			p.t.Fatalf("%s: %v", name, err)
		}
		if moved := e.PlanEpoch() != before; moved != wantMove {
			p.t.Errorf("%s: PlanEpoch moved=%v, want %v", name, moved, wantMove)
		}
	}
	step("SetOPP", func() error { return e.SetOPP("cpu-big", 1) }, true)
	step("SetLevel", func() error { return e.SetLevel("dnn1", 3) }, true)
	step("Migrate", func() error {
		return e.Migrate("dnn2", Placement{Cluster: "cpu-big", Cores: 2})
	}, true)
	step("SetAmbient change", func() error { e.SetAmbient(35); return nil }, true)
	step("SetAmbient no-op", func() error { e.SetAmbient(35); return nil }, false)
}

// TestPlanEpochSemantics pins what PlanEpoch tracks — app lifecycle and
// knob state — and, just as deliberately, what it does not: the clock and
// per-job churn, which is what lets a manager elide replans while frames
// keep flowing.
func TestPlanEpochSemantics(t *testing.T) {
	prof := perf.UniformProfile("epochtest", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	apps := []App{
		{
			Name: "dnn1", Kind: KindDNN, Profile: prof, Level: 4,
			PeriodS: 0.040, ModelBytes: 7 << 20,
			Placement: Placement{Cluster: "npu"},
		},
		{
			Name: "bg", Kind: KindBackground, Util: 0.3,
			Placement: Placement{Cluster: "cpu-lit", Cores: 2},
		},
		{
			Name: "dnn2", Kind: KindDNN, Profile: prof, Level: 3,
			PeriodS: 1.0 / 60, ModelBytes: 7 << 20, StartS: 6,
			Placement: Placement{Cluster: "cpu-big", Cores: 4},
		},
		{
			Name: "vr", Kind: KindRender, Util: 0.6, StartS: 8, StopS: 11,
			Placement: Placement{Cluster: "gpu"},
		},
	}
	probe := &epochProbe{t: t}
	e, err := New(Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       apps,
		Controller: probe,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(12); err != nil {
		t.Fatal(err)
	}
	if !probe.didKnobs {
		t.Fatal("knob steps never ran")
	}
	// The four epoch-moving knob steps ran at t≈7, then vr started at t=8
	// and stopped at t=11: all six must have moved the epoch past the t=7
	// sample.
	if got := e.PlanEpoch(); got < probe.afterStart+4+2 {
		t.Fatalf("PlanEpoch %d; want ≥ %d after knob steps + vr start/stop",
			got, probe.afterStart+4+2)
	}
}
