package experiments

import (
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Fig5Result is the closed-loop disturbance experiment: the RTM holds a
// DNN's budget through a background burst on the same cluster, using the
// knob/monitor interface of Fig 5; a governor-only baseline on the same
// scenario shows what the application-blind prior art achieves.
type Fig5Result struct {
	Managed        sim.AppInfo
	Baseline       sim.AppInfo
	ManagedReport  sim.Report
	BaselineReport sim.Report
	Knobs          []string
	Monitors       []string
	Table          *trace.Table
}

// Fig5 runs the disturbance scenario twice — once under the manager, once
// under an ondemand governor with static mapping — on the Odroid XU3 with
// the given (measured or published) profile.
func Fig5(prof perf.ModelProfile, o Options) (Fig5Result, error) {
	s := workload.Fig5Scenario(prof)

	e, _, _, err := workload.Run(s, hw.OdroidXU3(), 0.25, o.Logf)
	if err != nil {
		return Fig5Result{}, err
	}
	managed, _ := e.App("dnn")

	gov := rtm.NewGovernorController(rtm.OndemandGovernor{})
	be, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       s.Apps,
		Controller: gov,
		TickS:      0.25,
	})
	if err != nil {
		return Fig5Result{}, err
	}
	if err := be.Run(s.EndS); err != nil {
		return Fig5Result{}, err
	}
	baseline, _ := be.App("dnn")

	res := Fig5Result{
		Managed:        managed,
		Baseline:       baseline,
		ManagedReport:  e.Report(),
		BaselineReport: be.Report(),
	}
	reg := rtm.EngineRegistry(e)
	res.Knobs = reg.KnobNames("")
	res.Monitors = reg.MonitorNames("")
	res.Table = trace.NewTable("Fig 5 — closed-loop control through a background burst (Odroid XU3)",
		"Controller", "Frames", "Completed", "Missed", "Dropped", "Bad (%)", "Avg latency (ms)", "Energy (mJ)")
	add := func(name string, a sim.AppInfo, rep sim.Report) {
		bad := 0.0
		if a.Released > 0 {
			bad = 100 * float64(a.Missed+a.Dropped) / float64(a.Released)
		}
		res.Table.AddRow(name, a.Released, a.Completed, a.Missed, a.Dropped, bad,
			a.AvgLatency*1000, rep.TotalEnergyMJ)
	}
	add("RTM (knobs+monitors)", managed, res.ManagedReport)
	add("ondemand governor", baseline, res.BaselineReport)
	return res, nil
}

// BadFraction returns the miss+drop fraction for an app info.
func BadFraction(a sim.AppInfo) float64 {
	if a.Released == 0 {
		return 0
	}
	return float64(a.Missed+a.Dropped) / float64(a.Released)
}
