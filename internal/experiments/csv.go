package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteSweepCSV exports the Figs. 6–8 rate sweep as CSV for external
// plotting: one row per (pause, rate, scheme) with every sweep metric.
func (s *Suite) WriteSweepCSV(w io.Writer) error {
	points, err := s.sweep()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{
		"pause", "rate", "scheme",
		"total_joules", "energy_variance", "pdr",
		"energy_per_bit", "avg_delay_s", "normalized_overhead",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		pause := "mobile"
		if p.Static {
			pause = "static"
		}
		row := []string{
			pause,
			strconv.FormatFloat(p.Rate, 'f', 1, 64),
			p.Scheme.String(),
			strconv.FormatFloat(p.TotalJoules, 'f', 1, 64),
			strconv.FormatFloat(p.EnergyVariance, 'f', 1, 64),
			strconv.FormatFloat(p.PDR, 'f', 4, 64),
			strconv.FormatFloat(p.EnergyPerBit, 'e', 4, 64),
			strconv.FormatFloat(p.AvgDelaySec, 'f', 4, 64),
			strconv.FormatFloat(p.NormalizedOverhead, 'f', 3, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig5CSV exports the full ascending per-node energy curves (the
// paper plots all 100 nodes; the text report shows percentiles only).
// One row per (pause, rate, scheme, node_rank).
func (s *Suite) WriteFig5CSV(w io.Writer) error {
	panels, err := s.Fig5()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pause", "rate", "scheme", "node_rank", "joules"}); err != nil {
		return err
	}
	for _, panel := range panels {
		pause := "mobile"
		if panel.Static {
			pause = "static"
		}
		for _, sch := range figureSchemes {
			curve := panel.Curves[sch]
			for rank, j := range curve {
				row := []string{
					pause,
					strconv.FormatFloat(panel.Rate, 'f', 1, 64),
					sch.String(),
					strconv.Itoa(rank),
					strconv.FormatFloat(j, 'f', 2, 64),
				}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig9CSV exports the per-node (role number, energy) scatter points
// behind Fig. 9. One row per (rate, scheme, node).
func (s *Suite) WriteFig9CSV(w io.Writer) error {
	keys := s.cornerKeys()
	if err := s.prefetch(keys...); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rate", "scheme", "node", "role_number", "joules"}); err != nil {
		return err
	}
	for _, k := range keys {
		r := s.cache[k].Results[0]
		// Sanity footer comment rows are not valid CSV; instead assert
		// internally that the vectors are aligned.
		if len(r.RoleNumbers) != len(r.PerNodeJoules) {
			return fmt.Errorf("experiments: role/energy length mismatch (%d vs %d)",
				len(r.RoleNumbers), len(r.PerNodeJoules))
		}
		for node := range r.RoleNumbers {
			row := []string{
				strconv.FormatFloat(k.rate, 'f', 1, 64),
				k.scheme.String(),
				strconv.Itoa(node),
				strconv.FormatFloat(r.RoleNumbers[node], 'f', 0, 64),
				strconv.FormatFloat(r.PerNodeJoules[node], 'f', 2, 64),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SummaryLine returns a one-line digest of the headline comparison at the
// low-rate mobile point, used by tooling banners.
func (s *Suite) SummaryLine() (string, error) {
	var parts []string
	for _, sch := range figureSchemes {
		a, err := s.agg(s.low(sch))
		if err != nil {
			return "", err
		}
		parts = append(parts, fmt.Sprintf("%s %.0fJ/%.1f%%",
			sch, a.TotalJoules.Mean(), 100*a.PDR.Mean()))
	}
	return strings.Join(parts, "  "), nil
}
