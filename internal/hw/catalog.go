package hw

// This file defines the platforms of the paper's evaluation, with model
// constants fitted to the paper's Table I. The reference workload for all
// fits is a fixed W = 1,042,432 MACs per inference (the 100% configuration
// of the reference dynamic DNN used in perf.PaperReferenceProfile).
//
// Latency model per cluster: t(f) = overhead + W / (rate·f)
// Power model per cluster:   P(f,V) = Ceff·V²·f + Static  (full util)
//
// Fits (paper value → model value):
//
// Odroid XU3, A15 cluster — Table I rows (200 MHz, 1 GHz, 1.8 GHz):
//   latency 1020/204/117 ms → 1004/204/115.1 ms (overhead 4 ms,
//   rate 5.2122e6 MAC/s/GHz)
//   power 326/846/2120 mW → 326/846/2113 mW (Ceff 620.5, Static 225.5,
//   V = 0.90625 − 0.0625 f + 0.15625 f²: 0.90 V @200 MHz, 1.00 V @1 GHz,
//   1.30 V @1.8 GHz)
//
// Odroid XU3, A7 cluster — rows (200, 700, 1300 MHz):
//   latency 1780/504/280 ms → 1782/512.7/278.4 ms (overhead 5 ms,
//   rate 2.9332e6)
//   power 72.4/141/329 mW → 72.4/141/323 mW (Ceff 127.5, Static 51.7,
//   V = 0.89394 − 0.01818 f + 0.24242 f²)
//
// Jetson Nano, A57 cluster — rows (921 MHz, 1.43 GHz):
//   latency 69.4/46.9 ms → 69.4/46.9 ms (overhead 6.2 ms, rate 17.912e6)
//   power 878/1490 mW → 878/1490 mW (Ceff 756.2, Static 181.6,
//   V = 1.0 @0.921, 1.1 @1.43)
//
// Jetson Nano, GPU — rows (614 MHz + A57@921, 921 MHz + A57@1.43):
//   latency 7.4/4.93 ms → 7.41/4.94 ms (overhead 0, rate 229.1e6)
//   total power 1340/2500 mW → 1346/2505 mW with the GPU inference
//   inducing 20% utilisation on the companion A57 (pre-processing), GPU
//   Ceff 1850, Static 0, V = 0.95 @0.614, 1.10 @0.921.
//
// Energy cross-check (E = P·t): model reproduces every Table I energy cell
// within 3% (verified by TestTableICalibration).

// ReferenceWorkloadMACs is the inference cost of the 100% model used for
// all Table I fits.
const ReferenceWorkloadMACs = 1042432

// volt evaluates a quadratic voltage/frequency ladder.
func volt(v0, v1, v2, f float64) float64 { return v0 + v1*f + v2*f*f }

// rangeOPPs builds an OPP ladder from fMin to fMax (inclusive) in the
// given step, with voltages from the quadratic ladder coefficients.
func rangeOPPs(fMin, fMax, step, v0, v1, v2 float64) []OPP {
	var opps []OPP
	for f := fMin; f <= fMax+1e-9; f += step {
		opps = append(opps, OPP{FreqGHz: f, VoltageV: volt(v0, v1, v2, f)})
	}
	return opps
}

// withScaleTables fills every cluster's core-scaling table (see
// Cluster.EffectiveRate) and returns p.
func withScaleTables(p *Platform) *Platform {
	for _, c := range p.Clusters {
		c.fillScale()
	}
	return p
}

// OdroidXU3 models the paper's primary evaluation board (Exynos 5422):
// 4×A15 with 17 DVFS levels (200–1800 MHz) and 4×A7 with 12 levels
// (200–1300 MHz) — the exact ladder counts used in Fig 4(a).
func OdroidXU3() *Platform {
	return withScaleTables(&Platform{
		Name:     "odroid-xu3",
		AmbientC: 25,
		Thermal: ThermalParams{
			RthKPerW:  9.0,
			CthJPerK:  3.0,
			ThrottleC: 85,
			CriticalC: 95,
		},
		Clusters: []*Cluster{
			{
				Name:              "a15",
				Type:              CoreA15,
				Cores:             4,
				OPPs:              rangeOPPs(0.2, 1.8, 0.1, 0.90625, -0.0625, 0.15625),
				Power:             PowerParams{CeffMWPerV2GHz: 620.5, StaticMW: 225.5},
				RateMACsPerSecGHz: 5.2122e6,
				ParallelAlpha:     0.9,
				FixedOverheadS:    0.004,
			},
			{
				Name:              "a7",
				Type:              CoreA7,
				Cores:             4,
				OPPs:              rangeOPPs(0.2, 1.3, 0.1, 0.89394, -0.01818, 0.24242),
				Power:             PowerParams{CeffMWPerV2GHz: 127.5, StaticMW: 51.7},
				RateMACsPerSecGHz: 2.9332e6,
				ParallelAlpha:     0.9,
				FixedOverheadS:    0.005,
			},
		},
	})
}

// JetsonNano models the paper's second Table I platform: a Maxwell GPU
// plus a 4×A57 CPU cluster.
func JetsonNano() *Platform {
	return withScaleTables(&Platform{
		Name:     "jetson-nano",
		AmbientC: 25,
		Thermal: ThermalParams{
			RthKPerW:  6.0,
			CthJPerK:  6.0,
			ThrottleC: 85,
			CriticalC: 97,
		},
		Clusters: []*Cluster{
			{
				Name:  "gpu",
				Type:  CoreGPU,
				Cores: 1,
				OPPs: []OPP{
					{FreqGHz: 0.3937, VoltageV: 0.90},
					{FreqGHz: 0.6140, VoltageV: 0.95},
					{FreqGHz: 0.7680, VoltageV: 1.02},
					{FreqGHz: 0.9216, VoltageV: 1.10},
				},
				Power:             PowerParams{CeffMWPerV2GHz: 1850, StaticMW: 0},
				RateMACsPerSecGHz: 229.1e6,
				ParallelAlpha:     1.0,
				FixedOverheadS:    0,
				CompanionName:     "a57",
				CompanionUtil:     0.20,
			},
			{
				Name:  "a57",
				Type:  CoreA57,
				Cores: 4,
				OPPs: []OPP{
					{FreqGHz: 0.921, VoltageV: 1.00},
					{FreqGHz: 1.2, VoltageV: 1.05},
					{FreqGHz: 1.43, VoltageV: 1.10},
				},
				Power:             PowerParams{CeffMWPerV2GHz: 756.2, StaticMW: 181.6},
				RateMACsPerSecGHz: 17.912e6,
				ParallelAlpha:     0.9,
				FixedOverheadS:    0.0062,
			},
		},
	})
}

// FlagshipSoC is a representative phone SoC in the spirit of the paper's
// motivating examples (Kirin 990 5G, Apple A13): two CPU clusters, a GPU
// and an NPU with dedicated on-chip memory. Its constants are not fitted
// to Table I (the paper publishes none for these parts); they preserve the
// capability ordering NPU ≫ GPU ≫ big CPU ≫ LITTLE CPU that the Fig 2
// scenario depends on.
func FlagshipSoC() *Platform {
	return withScaleTables(&Platform{
		Name:     "flagship-soc",
		AmbientC: 25,
		Thermal: ThermalParams{
			RthKPerW:  8.0,
			CthJPerK:  0.5,
			ThrottleC: 65,
			CriticalC: 85,
		},
		Clusters: []*Cluster{
			{
				Name:              "cpu-big",
				Type:              CoreBig,
				Cores:             4,
				OPPs:              rangeOPPs(0.6, 2.6, 0.2, 0.62, 0.13, 0.04),
				Power:             PowerParams{CeffMWPerV2GHz: 900, StaticMW: 250},
				RateMACsPerSecGHz: 24e6,
				ParallelAlpha:     0.9,
				FixedOverheadS:    0.002,
			},
			{
				Name:              "cpu-lit",
				Type:              CoreLit,
				Cores:             4,
				OPPs:              rangeOPPs(0.4, 1.8, 0.2, 0.70, 0.10, 0.06),
				Power:             PowerParams{CeffMWPerV2GHz: 180, StaticMW: 60},
				RateMACsPerSecGHz: 7e6,
				ParallelAlpha:     0.9,
				FixedOverheadS:    0.004,
			},
			{
				Name:  "gpu",
				Type:  CoreGPU,
				Cores: 1,
				OPPs: []OPP{
					{FreqGHz: 0.25, VoltageV: 0.70},
					{FreqGHz: 0.40, VoltageV: 0.78},
					{FreqGHz: 0.60, VoltageV: 0.88},
					{FreqGHz: 0.80, VoltageV: 1.00},
				},
				Power:             PowerParams{CeffMWPerV2GHz: 2600, StaticMW: 80},
				RateMACsPerSecGHz: 200e6,
				ParallelAlpha:     1.0,
				FixedOverheadS:    0.001,
				CompanionName:     "cpu-lit",
				CompanionUtil:     0.25,
			},
			{
				Name:  "npu",
				Type:  CoreNPU,
				Cores: 1,
				OPPs: []OPP{
					{FreqGHz: 0.40, VoltageV: 0.70},
					{FreqGHz: 0.60, VoltageV: 0.78},
					{FreqGHz: 0.80, VoltageV: 0.88},
					{FreqGHz: 1.00, VoltageV: 0.95},
				},
				Power:             PowerParams{CeffMWPerV2GHz: 1800, StaticMW: 60},
				RateMACsPerSecGHz: 2400e6,
				ParallelAlpha:     1.0,
				FixedOverheadS:    0.0008,
				CompanionName:     "cpu-lit",
				CompanionUtil:     0.20,
				MemBytes:          8 << 20, // 8 MiB on-chip model memory
			},
		},
	})
}

// Catalog returns all built-in platforms keyed by name. Every call builds
// fresh, mutable copies, so callers may edit what they get. The fleet
// layer instead builds one set and shares it read-only across its runs
// and workers.
func Catalog() map[string]*Platform {
	out := map[string]*Platform{}
	for _, p := range []*Platform{OdroidXU3(), JetsonNano(), FlagshipSoC()} {
		out[p.Name] = p
	}
	return out
}
