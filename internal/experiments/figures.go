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
	var panels []Fig5Panel
	var cfgs []scenario.Config
	for _, static := range []bool{false, true} {
		for _, rate := range []float64{s.p.LowRate, s.p.HighRate} {
			panels = append(panels, Fig5Panel{
				Rate:   rate,
				Static: static,
				Curves: make(map[scenario.Scheme][]float64),
			})
			for _, sch := range figureSchemes {
				cfgs = append(cfgs, s.cell(sch, rate, static))
			}
		}
	}
	aggs, err := s.prefetch(cfgs...)
	if err != nil {
		return nil, err
	}
	for i, panel := range panels {
		s.printf("== Fig 5: per-node energy, ascending (Rpkt=%.1f, %s) ==\n",
			panel.Rate, pauseLabel(panel.Static))
		s.printf("%-8s %8s %8s %8s %8s %8s\n", "scheme", "min", "p25", "p50", "p75", "max")
		for j, sch := range figureSchemes {
			curve := aggs[i*len(figureSchemes)+j].MeanSortedJoules
			panel.Curves[sch] = curve
			s.printf("%-8s %8.1f %8.1f %8.1f %8.1f %8.1f\n", sch,
				stats.Percentile(curve, 0), stats.Percentile(curve, 25),
				stats.Percentile(curve, 50), stats.Percentile(curve, 75),
				stats.Percentile(curve, 100))
		}
		s.printf("\n")
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

// sweepCells returns every point of the Figs. 6–8 rate sweep in print
// order (pause, then rate, then scheme) with its config. The sweep covers
// the cells of Table 1, Fig. 5 and Fig. 9 too: their corner rates are in
// it.
func (s *Suite) sweepCells() ([]SweepPoint, []scenario.Config) {
	var points []SweepPoint
	var cfgs []scenario.Config
	for _, static := range []bool{false, true} {
		for _, rate := range s.p.Rates {
			for _, sch := range figureSchemes {
				points = append(points, SweepPoint{Scheme: sch, Rate: rate, Static: static})
				cfgs = append(cfgs, s.cell(sch, rate, static))
			}
		}
	}
	return points, cfgs
}

// sweep runs (or reuses) the full rate sweep for both pause settings. All
// missing cells simulate concurrently across the worker pool.
func (s *Suite) sweep() ([]SweepPoint, error) {
	points, cfgs := s.sweepCells()
	aggs, err := s.prefetch(cfgs...)
	if err != nil {
		return nil, err
	}
	for i, a := range aggs {
		p := &points[i]
		p.TotalJoules = a.TotalJoules.Mean()
		p.EnergyVariance = a.EnergyVariance.Mean()
		p.PDR = a.PDR.Mean()
		p.EnergyPerBit = a.EnergyPerBit.Mean()
		p.AvgDelaySec = a.AvgDelaySec.Mean()
		p.NormalizedOverhead = a.NormalizedOverhead.Mean()
	}
	return points, nil
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

// corners returns the mobile cells of every figure scheme at the low and
// then the high corner rate, the cells behind Fig. 9 and its CSV, with
// their aggregates.
func (s *Suite) corners() ([]scenario.Config, []*scenario.Aggregate, error) {
	var cfgs []scenario.Config
	for _, rate := range []float64{s.p.LowRate, s.p.HighRate} {
		for _, sch := range figureSchemes {
			cfgs = append(cfgs, s.cell(sch, rate, false))
		}
	}
	aggs, err := s.prefetch(cfgs...)
	return cfgs, aggs, err
}

// Fig9 reproduces "comparison of role number and energy consumption".
func (s *Suite) Fig9() ([]Fig9Panel, error) {
	cfgs, aggs, err := s.corners()
	if err != nil {
		return nil, err
	}
	var panels []Fig9Panel
	s.printf("== Fig 9: role number vs per-node energy (mobile) ==\n")
	s.printf("%-8s %-6s %9s %9s %9s %9s %9s %6s\n",
		"scheme", "rate", "roleMax", "roleMean", "roleP90", "energyMax", "energyAvg", "corr")
	for i, cfg := range cfgs {
		r := aggs[i].Results[0]
		p := Fig9Panel{
			Scheme:      cfg.Scheme,
			Rate:        cfg.PacketRate,
			RoleMax:     stats.Max(r.RoleNumbers),
			RoleMean:    stats.Mean(r.RoleNumbers),
			RoleP90:     stats.Percentile(r.RoleNumbers, 90),
			EnergyMax:   stats.Max(r.PerNodeJoules),
			EnergyMean:  stats.Mean(r.PerNodeJoules),
			Correlation: stats.Correlation(r.RoleNumbers, r.PerNodeJoules),
		}
		panels = append(panels, p)
		s.printf("%-8s %-6.1f %9.0f %9.1f %9.1f %9.1f %9.1f %6.2f\n",
			p.Scheme, p.Rate, p.RoleMax, p.RoleMean, p.RoleP90, p.EnergyMax, p.EnergyMean, p.Correlation)
	}
	s.printf("\n")
	return panels, nil
}
