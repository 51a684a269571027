package experiments

import (
	"rcast/internal/scenario"
	"rcast/internal/stats"
)

// awakeFraction estimates the mean awake fraction from per-node energy:
// invert J = Pawake*f*T + Psleep*(1-f)*T.
func awakeFraction(r *scenario.Result) float64 {
	const pAwake, pSleep = 1.15, 0.045
	T := r.Duration.Seconds()
	mean := stats.Mean(r.PerNodeJoules)
	f := (mean/T - pSleep) / (pAwake - pSleep)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Fig5Panel is one panel of Fig. 5: per-node energy in ascending order.
type Fig5Panel struct {
	Rate   float64
	Static bool
	// Curves maps each scheme to its ascending per-node energy curve
	// (mean over replications).
	Curves map[scenario.Scheme][]float64
}

// Fig5 reproduces "Energy consumption comparison at each node": four
// panels (low/high rate × mobile/static), nodes sorted by consumption.
func (s *Suite) Fig5() ([]Fig5Panel, error) {
	var keys []runKey
	for _, static := range []bool{false, true} {
		for _, rate := range []float64{s.p.LowRate, s.p.HighRate} {
			for _, sch := range figureSchemes {
				keys = append(keys, runKey{scheme: sch, rate: rate, static: static})
			}
		}
	}
	if err := s.prefetch(keys...); err != nil {
		return nil, err
	}
	var panels []Fig5Panel
	for _, static := range []bool{false, true} {
		for _, rate := range []float64{s.p.LowRate, s.p.HighRate} {
			panel := Fig5Panel{
				Rate:   rate,
				Static: static,
				Curves: make(map[scenario.Scheme][]float64),
			}
			s.printf("== Fig 5: per-node energy, ascending (Rpkt=%.1f, %s) ==\n",
				rate, pauseLabel(static))
			s.printf("%-8s %8s %8s %8s %8s %8s\n", "scheme", "min", "p25", "p50", "p75", "max")
			for _, sch := range figureSchemes {
				a, err := s.agg(runKey{scheme: sch, rate: rate, static: static})
				if err != nil {
					return nil, err
				}
				curve := a.MeanSortedJoules
				panel.Curves[sch] = curve
				s.printf("%-8s %8.1f %8.1f %8.1f %8.1f %8.1f\n", sch,
					stats.Percentile(curve, 0), stats.Percentile(curve, 25),
					stats.Percentile(curve, 50), stats.Percentile(curve, 75),
					stats.Percentile(curve, 100))
			}
			panels = append(panels, panel)
			s.printf("\n")
		}
	}
	return panels, nil
}

// SweepPoint is one (scheme, rate) sample of the Figs. 6–8 sweeps.
type SweepPoint struct {
	Scheme             scenario.Scheme
	Rate               float64
	Static             bool
	TotalJoules        float64
	EnergyVariance     float64
	PDR                float64
	EnergyPerBit       float64
	AvgDelaySec        float64
	NormalizedOverhead float64
}

// sweep runs (or reuses) the full rate sweep for both pause settings. All
// missing cells simulate concurrently across the worker pool.
func (s *Suite) sweep() ([]SweepPoint, error) {
	if err := s.prefetch(s.sweepKeys()...); err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, static := range []bool{false, true} {
		for _, rate := range s.p.Rates {
			for _, sch := range figureSchemes {
				a, err := s.agg(runKey{scheme: sch, rate: rate, static: static})
				if err != nil {
					return nil, err
				}
				out = append(out, SweepPoint{
					Scheme:             sch,
					Rate:               rate,
					Static:             static,
					TotalJoules:        a.TotalJoules.Mean(),
					EnergyVariance:     a.EnergyVariance.Mean(),
					PDR:                a.PDR.Mean(),
					EnergyPerBit:       a.EnergyPerBit.Mean(),
					AvgDelaySec:        a.AvgDelaySec.Mean(),
					NormalizedOverhead: a.NormalizedOverhead.Mean(),
				})
			}
		}
	}
	return out, nil
}

// sweepMetric is one panel series of Figs. 6–8: its name, the fmt verb of
// its cells, and the SweepPoint field it plots.
type sweepMetric struct {
	name, format string
	get          func(SweepPoint) float64
}

// sweepPanels prints one panel per (pause setting, metric) of a rate-sweep
// figure: a row per rate, a column per scheme.
func (s *Suite) sweepPanels(fig int, ms ...sweepMetric) ([]SweepPoint, error) {
	points, err := s.sweep()
	if err != nil {
		return nil, err
	}
	for _, static := range []bool{false, true} {
		for _, m := range ms {
			s.printf("== Fig %d: %s (%s) ==\n", fig, m.name, pauseLabel(static))
			s.printHeader()
			for _, rate := range s.p.Rates {
				s.printRow(points, rate, static, m.get, m.format)
			}
			s.printf("\n")
		}
	}
	return points, nil
}

// Fig6 reproduces "variance of energy consumption" vs packet rate for
// mobile and static scenarios.
func (s *Suite) Fig6() ([]SweepPoint, error) {
	return s.sweepPanels(6,
		sweepMetric{"variance of per-node energy", "%10.0f", func(p SweepPoint) float64 { return p.EnergyVariance }})
}

// Fig7 reproduces total energy, packet delivery ratio and energy-per-bit
// vs packet rate (six panels).
func (s *Suite) Fig7() ([]SweepPoint, error) {
	return s.sweepPanels(7,
		sweepMetric{"total energy (J)", "%10.0f", func(p SweepPoint) float64 { return p.TotalJoules }},
		sweepMetric{"packet delivery ratio", "%10.3f", func(p SweepPoint) float64 { return p.PDR }},
		sweepMetric{"energy per bit (J/bit)", "%10.2e", func(p SweepPoint) float64 { return p.EnergyPerBit }})
}

// Fig8 reproduces average packet delay and normalized routing overhead vs
// packet rate (four panels).
func (s *Suite) Fig8() ([]SweepPoint, error) {
	return s.sweepPanels(8,
		sweepMetric{"average delay (s)", "%10.3f", func(p SweepPoint) float64 { return p.AvgDelaySec }},
		sweepMetric{"normalized routing overhead", "%10.2f", func(p SweepPoint) float64 { return p.NormalizedOverhead }})
}

func (s *Suite) printHeader() {
	s.printf("%-6s", "rate")
	for _, sch := range figureSchemes {
		s.printf("%10s", sch.String())
	}
	s.printf("\n")
}

func (s *Suite) printRow(points []SweepPoint, rate float64, static bool, get func(SweepPoint) float64, format string) {
	s.printf("%-6.1f", rate)
	for _, sch := range figureSchemes {
		for _, p := range points {
			if p.Scheme == sch && p.Rate == rate && p.Static == static {
				s.printf(format, get(p))
				break
			}
		}
	}
	s.printf("\n")
}

// Fig9Panel digests one scatter panel of Fig. 9: role number vs per-node
// energy for one scheme at one rate (mobile scenario, Tpause=600 in the
// paper).
type Fig9Panel struct {
	Scheme      scenario.Scheme
	Rate        float64
	RoleMax     float64
	RoleMean    float64
	RoleP90     float64
	EnergyMax   float64
	EnergyMean  float64
	Correlation float64 // Pearson correlation of (role, energy) over nodes
}

// cornerKeys are the mobile cells of every figure scheme at the low and
// then the high corner rate: the cells behind Fig. 9 and its CSV.
func (s *Suite) cornerKeys() []runKey {
	var keys []runKey
	for _, rate := range []float64{s.p.LowRate, s.p.HighRate} {
		for _, sch := range figureSchemes {
			keys = append(keys, runKey{scheme: sch, rate: rate})
		}
	}
	return keys
}

// Fig9 reproduces "comparison of role number and energy consumption".
func (s *Suite) Fig9() ([]Fig9Panel, error) {
	keys := s.cornerKeys()
	if err := s.prefetch(keys...); err != nil {
		return nil, err
	}
	var panels []Fig9Panel
	s.printf("== Fig 9: role number vs per-node energy (mobile) ==\n")
	s.printf("%-8s %-6s %9s %9s %9s %9s %9s %6s\n",
		"scheme", "rate", "roleMax", "roleMean", "roleP90", "energyMax", "energyAvg", "corr")
	for _, k := range keys {
		r := s.cache[k].Results[0]
		p := Fig9Panel{
			Scheme:      k.scheme,
			Rate:        k.rate,
			RoleMax:     stats.Max(r.RoleNumbers),
			RoleMean:    stats.Mean(r.RoleNumbers),
			RoleP90:     stats.Percentile(r.RoleNumbers, 90),
			EnergyMax:   stats.Max(r.PerNodeJoules),
			EnergyMean:  stats.Mean(r.PerNodeJoules),
			Correlation: stats.Correlation(r.RoleNumbers, r.PerNodeJoules),
		}
		panels = append(panels, p)
		s.printf("%-8s %-6.1f %9.0f %9.1f %9.1f %9.1f %9.1f %6.2f\n",
			k.scheme, k.rate, p.RoleMax, p.RoleMean, p.RoleP90, p.EnergyMax, p.EnergyMean, p.Correlation)
	}
	s.printf("\n")
	return panels, nil
}
