// Package promtext is a dependency-free Prometheus text-format (version
// 0.0.4) exposition library for the serving layer: counters, gauges,
// labelled counter and gauge families and histograms registered in a Registry that
// writes a deterministic /metrics page — metrics sorted by name, label
// values sorted within a metric — so scrapes and tests see a stable
// ordering. All instruments are safe for concurrent use.
//
// It intentionally implements only what rcast-serve exposes; it is not a
// general Prometheus client.
package promtext

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can expose.
type metric interface {
	name() string
	write(w io.Writer) error
}

// Registry holds registered metrics and renders the exposition page.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register adds m, panicking on a duplicate name — metric names are
// compile-time decisions and a collision is always a programming error.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name()]; dup {
		panic(fmt.Sprintf("promtext: duplicate metric %q", m.name()))
	}
	r.metrics[m.name()] = m
}

// Write renders every registered metric in name order.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	nm, help string
	v        atomic.Uint64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nm }

func (c *Counter) write(w io.Writer) error {
	if err := writeHeader(w, c.nm, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
	return err
}

// Gauge is a settable int64.
type Gauge struct {
	nm, help string
	v        atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, help: help}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) write(w io.Writer) error {
	if err := writeHeader(w, g.nm, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", g.nm, g.v.Load())
	return err
}

// GaugeFunc samples a gauge from a callback at scrape time (queue depths
// and other values that already live elsewhere).
type GaugeFunc struct {
	nm, help string
	fn       func() int64
}

// NewGaugeFunc registers a callback-backed gauge. fn must be safe for
// concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{nm: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) name() string { return g.nm }

func (g *GaugeFunc) write(w io.Writer) error {
	if err := writeHeader(w, g.nm, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", g.nm, g.fn())
	return err
}

// Family is a counter or gauge family partitioned by one or more labels
// (jobs by state, runs by channel and policy, per-worker health). Its
// children are created on first use. A family registered with a sampling
// callback (NewGaugeFuncFamily) reads its samples at scrape time instead.
// Either way, samples render sorted by label values, so the page is
// deterministic regardless of update or callback order.
type Family struct {
	nm, help, typ string
	labels        []string
	fn            func() []Sample

	mu       sync.Mutex
	children map[string]*Sample
}

// Sample is one child of a family: its label values, in the family's
// label order, and its value.
type Sample struct {
	Values []string
	V      int64
}

func (r *Registry) newFamily(name, help, typ string, labels []string, fn func() []Sample) *Family {
	f := &Family{nm: name, help: help, typ: typ, labels: labels, fn: fn, children: make(map[string]*Sample)}
	r.register(f)
	return f
}

// NewCounterFamily registers a counter family over the given labels.
func (r *Registry) NewCounterFamily(name, help string, labels ...string) *Family {
	return r.newFamily(name, help, "counter", labels, nil)
}

// NewGaugeFamily registers a gauge family over the given labels.
func (r *Registry) NewGaugeFamily(name, help string, labels ...string) *Family {
	return r.newFamily(name, help, "gauge", labels, nil)
}

// NewGaugeFuncFamily registers a gauge family sampled from fn at scrape
// time (tallies that already live elsewhere, e.g. per-scheme trace-event
// counters). fn must be safe for concurrent use.
func (r *Registry) NewGaugeFuncFamily(name, help string, labels []string, fn func() []Sample) *Family {
	return r.newFamily(name, help, "gauge", labels, fn)
}

// child returns the sample for the given label values, creating it on
// first use; callers hold f.mu. A wrong number of values is a programming
// error and panics.
func (f *Family) child(values []string) *Sample {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("promtext: %s takes %d label values, got %d", f.nm, len(f.labels), len(values)))
	}
	k := strings.Join(values, "\x00")
	c, ok := f.children[k]
	if !ok {
		c = &Sample{Values: append([]string(nil), values...)}
		f.children[k] = c
	}
	return c
}

// Add adds n to the child for the given label values.
func (f *Family) Add(n int64, values ...string) {
	f.mu.Lock()
	f.child(values).V += n
	f.mu.Unlock()
}

// Inc adds one to the child for the given label values.
func (f *Family) Inc(values ...string) { f.Add(1, values...) }

// Set replaces the value of the child for the given label values.
func (f *Family) Set(v int64, values ...string) {
	f.mu.Lock()
	f.child(values).V = v
	f.mu.Unlock()
}

// Value returns one child's value (0 if never touched).
func (f *Family) Value(values ...string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[strings.Join(values, "\x00")]; ok {
		return c.V
	}
	return 0
}

func (f *Family) name() string { return f.nm }

func (f *Family) write(w io.Writer) error {
	if err := writeHeader(w, f.nm, f.help, f.typ); err != nil {
		return err
	}
	var samples []Sample
	if f.fn != nil {
		samples = f.fn()
	} else {
		f.mu.Lock()
		for _, c := range f.children {
			samples = append(samples, *c)
		}
		f.mu.Unlock()
	}
	slices.SortFunc(samples, func(a, b Sample) int { return slices.Compare(a.Values, b.Values) })
	for _, s := range samples {
		pairs := make([]string, len(f.labels))
		for i, l := range f.labels {
			pairs[i] = fmt.Sprintf("%s=%q", l, s.Values[i])
		}
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", f.nm, strings.Join(pairs, ","), s.V); err != nil {
			return err
		}
	}
	return nil
}

// Histogram is a cumulative-bucket histogram of float64 observations.
type Histogram struct {
	nm, help string
	bounds   []float64 // upper bounds, ascending; +Inf implicit

	mu     sync.Mutex
	counts []uint64 // one per bound, plus the +Inf overflow at the end
	sum    float64
	total  uint64
}

// NewHistogram registers a histogram with the given ascending upper
// bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("promtext: histogram %q bounds not ascending", name))
	}
	h := &Histogram{
		nm: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) write(w io.Writer) error {
	if err := writeHeader(w, h.nm, h.help, "histogram"); err != nil {
		return err
	}
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.nm, total)
	return err
}
