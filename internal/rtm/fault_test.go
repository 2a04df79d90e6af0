package rtm

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// markOffline flips the named cluster's availability bit in a view copy.
func markOffline(v *View, names ...string) {
	for i := range v.Clusters {
		for _, n := range names {
			if v.Clusters[i].Name == n {
				v.Clusters[i].Online = false
			}
		}
	}
}

// faultPolicies returns one instance of every planning strategy,
// including a learned policy over a small trained table.
func faultPolicies(t *testing.T) []Policy {
	t.Helper()
	var ps []Policy
	for _, name := range []string{"heuristic", "maxaccuracy", "minenergy"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	lp, err := NewLearnedPolicy("learned:test", trainedTestTable("h1p1s1a1"))
	if err != nil {
		t.Fatal(err)
	}
	return append(ps, lp)
}

// Every policy must route around dead silicon: with cpu-big offline no
// assignment may target it, including for the app currently placed there.
func TestPoliciesSkipOfflineClusters(t *testing.T) {
	for _, p := range faultPolicies(t) {
		t.Run(p.Name(), func(t *testing.T) {
			v := benchView(t)
			markOffline(&v, "cpu-big")
			plan := p.Plan(v)
			if len(plan) == 0 {
				t.Fatal("empty plan")
			}
			for _, asg := range plan {
				if asg.Placement.Cluster == "cpu-big" {
					t.Fatalf("%s assigned %s to offline cpu-big (pass %d)", p.Name(), asg.App, asg.Pass)
				}
			}
		})
	}
}

// With every cluster offline a plan is still produced (degenerate park)
// and nothing panics — the edge the fleet generator never produces but a
// library user can.
func TestAllClustersOfflinePlansWithoutPanic(t *testing.T) {
	for _, p := range faultPolicies(t) {
		t.Run(p.Name(), func(t *testing.T) {
			v := benchView(t)
			for i := range v.Clusters {
				v.Clusters[i].Online = false
			}
			plan := p.Plan(v)
			if len(plan) == 0 {
				t.Fatal("empty plan with all clusters offline")
			}
		})
	}
}

// degradedPin picks the least-loaded online cluster able to host the app
// at its floor, and refuses when no online cluster qualifies.
func TestDegradedPin(t *testing.T) {
	v := benchView(t)
	st := newPlanState(&v)
	app := v.Apps[0] // dnn1, 7 MiB model
	if ci := degradedPin(st, app); ci < 0 || !st.online[ci] {
		t.Fatalf("degradedPin = %d with healthy platform", ci)
	}
	// All offline: nowhere to pin.
	vAll := benchView(t)
	for i := range vAll.Clusters {
		vAll.Clusters[i].Online = false
	}
	if ci := degradedPin(newPlanState(&vAll), app); ci != -1 {
		t.Fatalf("degradedPin = %d with all clusters offline, want -1", ci)
	}
	// CPU clusters need a free core and memory-capped accelerators a
	// level-1 fit; exhaust both (an uncapped accelerator always qualifies,
	// so take those offline) and no eligible host remains.
	st2 := newPlanState(&v)
	for ci, cl := range st2.clusters {
		switch {
		case cl.Type.IsAccelerator() && cl.MemBytes == 0:
			st2.online[ci] = false
		case cl.Type.IsAccelerator():
			st2.freeMem[ci] = 0
		default:
			st2.freeCores[ci] = 0
		}
	}
	big := app
	big.ModelBytes = 64 << 20 // level-1 slice larger than any freed memory
	if ci := degradedPin(st2, big); ci != -1 {
		t.Fatalf("degradedPin = %d with no seats, want -1", ci)
	}
}

// Manager in the loop across a fail/repair cycle: the app is rehosted
// during the window (tiny unhosted time), a recovery latency is recorded,
// and nothing is left unhosted at the end.
func TestManagerRecoversFromClusterFault(t *testing.T) {
	mgr := NewManager(map[string]Requirement{"d": {Priority: 1}})
	var failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !failed && e.Now() >= 2 {
				failed = true
				if err := e.SetClusterOnline("a15", false); err != nil {
					t.Error(err)
				}
			}
			if failed && !repaired && e.Now() >= 6 {
				repaired = true
				if err := e.SetClusterOnline("a15", true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: ctrl,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d", rep.ClusterFails, rep.ClusterRepairs)
	}
	// The fault-triggered replan moves the app in the same instant, so no
	// meaningful unhosted time accrues across the 4 s outage.
	if rep.UnhostedS > 0.5 {
		t.Fatalf("UnhostedS = %.2f across a handled fault, want ~0", rep.UnhostedS)
	}
	recs := mgr.FaultRecoveries()
	if len(recs) == 0 {
		t.Fatal("no recovery latency recorded")
	}
	for _, r := range recs {
		if r < 0 || r > 1 {
			t.Fatalf("recovery latency %.3f out of range", r)
		}
	}
}

// A repair landing inside the fault-replan backoff is deferred, not lost:
// the tick retry picks it up once the backoff expires.
func TestRepairDuringBackoffStillReplans(t *testing.T) {
	mgr := NewManager(map[string]Requirement{"d": {Priority: 1}})
	mgr.FaultReplanBackoffS = 3
	var failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !failed && e.Now() >= 2 {
				failed = true
				if err := e.SetClusterOnline("a15", false); err != nil {
					t.Error(err)
				}
			}
			// Repair 0.5 s after the fault, well inside the 3 s backoff.
			if failed && !repaired && e.Now() >= 2.5 {
				repaired = true
				if err := e.SetClusterOnline("a15", true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: ctrl,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.ClusterRepairs != 1 {
		t.Fatalf("repairs=%d, want 1", rep.ClusterRepairs)
	}
}

// A cluster failing while the platform is under thermal pressure: both
// disturbance paths are active at once and the manager must neither panic
// nor let the die run to critical.
func TestFaultDuringThermalAlarm(t *testing.T) {
	plat := hw.FlagshipSoC()
	mgr := NewManager(map[string]Requirement{
		"d": {MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1},
	})
	app := dnn("d", "cpu-big", 4, 0.040)
	app.Profile = perf.UniformProfile("hot", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	app.ModelBytes = 12 << 20 // levels 3-4 exceed the NPU: high accuracy needs CPU/GPU
	var warmed, failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !warmed && e.Now() >= 4 {
				warmed = true
				e.SetAmbient(50) // push the die over the throttle point
			}
			if !failed && e.Now() >= 8 {
				failed = true
				if err := e.SetClusterOnline("cpu-big", false); err != nil {
					t.Error(err)
				}
			}
			if failed && !repaired && e.Now() >= 14 {
				repaired = true
				if err := e.SetClusterOnline("cpu-big", true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{app},
		Controller: ctrl,
		TickS:      0.25,
		LogEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.OverCriticalS > 0 {
		t.Fatalf("critical temperature violated for %.2fs during fault", rep.OverCriticalS)
	}
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d", rep.ClusterFails, rep.ClusterRepairs)
	}
}
