package serve

import (
	"net/http"
	"sort"

	"rcast/internal/metrics/promtext"
	"rcast/internal/trace"
)

// traceTally returns the tally for one scheme, creating it on first use.
// The returned counter is mutex-guarded, so traced jobs emit into it
// concurrently with summary reads and metric scrapes.
func (s *Server) traceTally(scheme string) *trace.SyncCounter {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	c, ok := s.traceTallies[scheme]
	if !ok {
		c = trace.NewSyncCounter()
		s.traceTallies[scheme] = c
	}
	return c
}

// traceSnapshots copies every scheme's tally at one instant.
func (s *Server) traceSnapshots() map[string]map[trace.Kind]uint64 {
	s.traceMu.Lock()
	tallies := make(map[string]*trace.SyncCounter, len(s.traceTallies))
	for scheme, c := range s.traceTallies {
		tallies[scheme] = c
	}
	s.traceMu.Unlock()
	out := make(map[string]map[trace.Kind]uint64, len(tallies))
	for scheme, c := range tallies {
		out[scheme] = c.Snapshot()
	}
	return out
}

// traceSamples feeds the rcast_serve_trace_events {scheme,kind} gauge
// family; promtext sorts the samples, so order here is irrelevant.
func (s *Server) traceSamples() []promtext.Sample {
	var out []promtext.Sample
	for scheme, kinds := range s.traceSnapshots() {
		for kind, n := range kinds {
			out = append(out, promtext.Sample{Values: []string{scheme, string(kind)}, V: int64(n)})
		}
	}
	return out
}

// SchemeTraceSummary is one scheme's slice of the traces summary: the
// full kind tally plus the headline counts clients usually want.
type SchemeTraceSummary struct {
	Events      map[string]uint64 `json:"events"`
	TotalEvents uint64            `json:"total_events"`
	Delivered   uint64            `json:"delivered"`
	Dropped     uint64            `json:"dropped"`
	PhyDropped  uint64            `json:"phy_dropped"`
	Deaths      uint64            `json:"deaths"`
}

// TraceSummary is the GET /api/v1/traces/summary payload: per-scheme
// trace-event tallies folded from every traced job this server has run
// (including in-flight ones). Schemes lists keys of Schemes in sorted
// order so clients get a deterministic iteration order.
type TraceSummary struct {
	Schemes     []string                      `json:"scheme_order"`
	PerScheme   map[string]SchemeTraceSummary `json:"schemes"`
	TotalEvents uint64                        `json:"total_events"`
}

// TracesSummary builds the current summary snapshot.
func (s *Server) TracesSummary() TraceSummary {
	snaps := s.traceSnapshots()
	sum := TraceSummary{
		Schemes:   make([]string, 0, len(snaps)),
		PerScheme: make(map[string]SchemeTraceSummary, len(snaps)),
	}
	for scheme, kinds := range snaps {
		sch := SchemeTraceSummary{Events: make(map[string]uint64, len(kinds))}
		for kind, n := range kinds {
			sch.Events[string(kind)] = n
			sch.TotalEvents += n
		}
		sch.Delivered = kinds[trace.KindDeliver]
		sch.Dropped = kinds[trace.KindDrop]
		sch.PhyDropped = kinds[trace.KindPhyDrop]
		sch.Deaths = kinds[trace.KindDeath]
		sum.PerScheme[scheme] = sch
		sum.Schemes = append(sum.Schemes, scheme)
		sum.TotalEvents += sch.TotalEvents
	}
	sort.Strings(sum.Schemes)
	return sum
}

func (s *Server) handleTracesSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.TracesSummary())
}
