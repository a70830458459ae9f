package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric series and renders them as Prometheus text
// exposition or JSON. A number has one store: a subsystem that owns a
// count keeps it in a live instrument (Counter/CounterVec/Gauge/Histogram)
// and reads the instrument wherever it reports the number. The closures
// (CounterFunc/GaugeFunc/SampleFunc) are for series derived from a store
// that lives elsewhere — a sum over a vec, state guarded by its owner's
// lock — never for a second copy of a count.
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]*series
}

// series is one registered metric family.
type series struct {
	name, help, typ string // typ: counter | gauge | histogram
	value           func() float64
	hist            *Histogram
	histVec         *HistogramVec
	samples         func() []Sample // labeled families
}

// Sample is one labeled observation emitted by a SampleFunc.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*series)}
}

func (r *Registry) register(s *series) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[s.name]; dup {
		panic("obs: duplicate metric registration: " + s.name)
	}
	r.metrics[s.name] = s
	r.order = append(r.order, s.name)
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (must be >= 0). Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers and returns a new counter. A nil registry returns
// nil; the nil counter's methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&series{name: name, help: help, typ: "counter", value: func() float64 { return float64(c.Value()) }})
	return c
}

// maxVecLabels bounds a CounterVec's label arity, so a child's key is a
// fixed-size array: With neither concatenates nor allocates.
const maxVecLabels = 2

// CounterVec is a counter family keyed by one or two labels (tenant;
// tenant and outcome). Children are created on first With and rendered as
// `name{label="v",...}`; Each reads them back, so the family is the store
// for per-label and (summed) all-label counts alike.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	order  [][maxVecLabels]string
	kids   map[[maxVecLabels]string]*Counter
}

// CounterVec registers a labeled counter family. Nil registry returns
// nil; the nil vec's methods are no-ops.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) < 1 || len(labels) > maxVecLabels {
		panic("obs: CounterVec takes one or two labels: " + name)
	}
	cv := &CounterVec{labels: labels, kids: make(map[[maxVecLabels]string]*Counter)}
	r.register(&series{name: name, help: help, typ: "counter", samples: cv.samples})
	return cv
}

// With returns the child counter for one value per label, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) counter.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	if len(values) != len(cv.labels) {
		panic("obs: CounterVec.With wants one value per label")
	}
	var key [maxVecLabels]string
	copy(key[:], values)
	cv.mu.Lock()
	c, ok := cv.kids[key]
	if !ok {
		c = &Counter{}
		cv.kids[key] = c
		cv.order = append(cv.order, key)
	}
	cv.mu.Unlock()
	return c
}

// Each calls fn with every child's label values and current count, in
// first-use order. Nil-safe.
func (cv *CounterVec) Each(fn func(values []string, n int64)) {
	if cv == nil {
		return
	}
	cv.mu.Lock()
	order := append([][maxVecLabels]string(nil), cv.order...)
	kids := make([]*Counter, len(order))
	for i, key := range order {
		kids[i] = cv.kids[key]
	}
	cv.mu.Unlock()
	for i := range order {
		fn(order[i][:len(cv.labels)], kids[i].Value())
	}
}

// samples is the family's exposition.
func (cv *CounterVec) samples() []Sample {
	var out []Sample
	cv.Each(func(values []string, n int64) {
		labels := make(map[string]string, len(values))
		for i, v := range values {
			labels[cv.labels[i]] = v
		}
		out = append(out, Sample{Labels: labels, Value: float64(n)})
	})
	return out
}

// CounterFunc registers a monotone series computed at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&series{name: name, help: help, typ: "counter", value: fn})
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Add increments by d. Nil-safe.
func (g *Gauge) Add(d float64) {
	if g != nil {
		addFloat(&g.bits, d)
	}
}

// addFloat adds d to the float64 whose bits are stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers and returns a new gauge. Nil registry returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&series{name: name, help: help, typ: "gauge", value: g.Value})
	return g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&series{name: name, help: help, typ: "gauge", value: fn})
}

// SampleFunc registers a labeled family (e.g. per-tenant, per-device
// series) whose samples are produced at scrape time. typ is "counter" or
// "gauge".
func (r *Registry) SampleFunc(name, help, typ string, fn func() []Sample) {
	if r == nil {
		return
	}
	r.register(&series{name: name, help: help, typ: typ, samples: fn})
}

// Histogram is a fixed-bucket cumulative histogram. Alongside the atomic
// bucket counts it keeps a small mutex-protected ring of the most recent
// raw observations, from which Quantile computes exact nearest-rank
// quantiles over the live window — the paper-faithful tail numbers the
// bucketed counts can only approximate.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated

	ringMu  sync.Mutex
	ring    []float64 // most recent observations, ringCap-bounded
	ringPos int
}

// histRingCap bounds the live-observation ring behind exact quantiles.
const histRingCap = 1024

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.ringMu.Lock()
	if len(h.ring) < histRingCap {
		h.ring = append(h.ring, v)
	} else {
		h.ring[h.ringPos] = v
		h.ringPos = (h.ringPos + 1) % histRingCap
	}
	h.ringMu.Unlock()
	addFloat(&h.sum, v)
}

// Quantile returns the exact nearest-rank q-quantile (0 < q <= 1) over
// the live ring of recent observations. Returns 0 when empty. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return nearestRank(h.appendRing(nil), q)
}

// appendRing appends a copy of the live ring to dst.
func (h *Histogram) appendRing(dst []float64) []float64 {
	h.ringMu.Lock()
	dst = append(dst, h.ring...)
	h.ringMu.Unlock()
	return dst
}

// nearestRank sorts vals in place and returns their nearest-rank
// q-quantile, element ceil(n·q) of n: one sample answers every quantile
// with itself, two put P50 on the lower one, and P99 leaves the maximum
// only once more than 100 samples have arrived. 0 when empty.
func nearestRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (a +Inf bucket is implicit). Nil registry returns
// nil.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(bounds)
	r.register(&series{name: name, help: help, typ: "histogram", hist: h})
	return h
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds))
	return h
}

// LogBuckets returns log-spaced bucket upper bounds covering [min, max]
// with perDecade buckets per power of ten. The last bound is >= max; a
// +Inf bucket is implicit at registration.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		panic("obs: LogBuckets needs 0 < min < max and perDecade > 0")
	}
	step := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for b := min; ; b *= step {
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

// LatencyBuckets is the standard log bucket layout for second-valued
// latency histograms: 10 buckets per decade from 10µs to 10s.
func LatencyBuckets() []float64 { return LogBuckets(1e-5, 10, 10) }

// HistogramVec is a histogram family keyed by one label (tenant, device,
// phase). Children are created lazily on first Observe and rendered as
// `name_bucket{label="v",le="..."}` plus per-label _sum/_count.
type HistogramVec struct {
	label  string
	bounds []float64
	mu     sync.Mutex
	order  []string
	kids   map[string]*Histogram
}

// HistogramVec registers a labeled histogram family. Nil registry
// returns nil; the nil vec's methods are no-ops.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	hv := &HistogramVec{label: label, bounds: append([]float64(nil), bounds...), kids: make(map[string]*Histogram)}
	r.register(&series{name: name, help: help, typ: "histogram", histVec: hv})
	return hv
}

// With returns the child histogram for one label value, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) histogram.
func (hv *HistogramVec) With(value string) *Histogram {
	if hv == nil {
		return nil
	}
	hv.mu.Lock()
	h, ok := hv.kids[value]
	if !ok {
		h = newHistogram(hv.bounds)
		hv.kids[value] = h
		hv.order = append(hv.order, value)
	}
	hv.mu.Unlock()
	return h
}

// Observe records v under the given label value. Nil-safe.
func (hv *HistogramVec) Observe(value string, v float64) { hv.With(value).Observe(v) }

// Quantile returns the exact nearest-rank q-quantile over the union of
// every child's live ring — the all-label quantile, from the same samples
// the per-label ones come from. Returns 0 when empty. Nil-safe.
func (hv *HistogramVec) Quantile(q float64) float64 {
	if hv == nil {
		return 0
	}
	var vals []float64
	_, kids := hv.children()
	for _, h := range kids {
		vals = h.appendRing(vals)
	}
	return nearestRank(vals, q)
}

// children returns the label values in first-use order with their
// histograms, for exposition.
func (hv *HistogramVec) children() ([]string, map[string]*Histogram) {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	order := append([]string(nil), hv.order...)
	kids := make(map[string]*Histogram, len(hv.kids))
	for k, v := range hv.kids {
		kids[k] = v
	}
	return order, kids
}

// formatLabels renders {k="v",...} with sorted keys ("" when empty).
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// families returns the registered series in registration order.
func (r *Registry) families() []*series {
	r.mu.Lock()
	out := make([]*series, len(r.order))
	for i, name := range r.order {
		out[i] = r.metrics[name]
	}
	r.mu.Unlock()
	return out
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (HELP/TYPE comments, one sample per line).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: nil registry")
	}
	bw := bufio.NewWriter(w)
	for _, s := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", s.name, s.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.typ)
		switch {
		case s.hist != nil:
			writeHistText(bw, s.name, "", s.hist)
		case s.histVec != nil:
			order, kids := s.histVec.children()
			for _, lv := range order {
				writeHistText(bw, s.name, fmt.Sprintf("%s=%q,", s.histVec.label, lv), kids[lv])
			}
		case s.samples != nil:
			for _, smp := range s.samples() {
				fmt.Fprintf(bw, "%s%s %s\n", s.name, formatLabels(smp.Labels), formatFloat(smp.Value))
			}
		default:
			fmt.Fprintf(bw, "%s %s\n", s.name, formatFloat(s.value()))
		}
	}
	return bw.Flush()
}

// writeHistText renders one histogram's cumulative buckets plus
// _sum/_count; labelPrefix is "" or `key="value",` for vec children.
func writeHistText(bw *bufio.Writer, name, labelPrefix string, h *Histogram) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d\n", name, labelPrefix, formatFloat(b), cum)
	}
	fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, h.Count())
	if labelPrefix == "" {
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count())
	} else {
		lp := strings.TrimSuffix(labelPrefix, ",")
		fmt.Fprintf(bw, "%s_sum{%s} %s\n", name, lp, formatFloat(h.Sum()))
		fmt.Fprintf(bw, "%s_count{%s} %d\n", name, lp, h.Count())
	}
}

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonMetric is one series in the JSON dump.
type jsonMetric struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Help      string             `json:"help,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Samples   []jsonSample       `json:"samples,omitempty"`
	Buckets   map[string]int64   `json:"buckets,omitempty"`
	Sum       *float64           `json:"sum,omitempty"`
	Count     *int64             `json:"count,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	Children  []jsonChildHist    `json:"children,omitempty"`
}

type jsonSample struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// jsonChildHist is one labeled child of a HistogramVec in the JSON dump.
type jsonChildHist struct {
	Label     string             `json:"label"`
	Buckets   map[string]int64   `json:"buckets"`
	Sum       float64            `json:"sum"`
	Count     int64              `json:"count"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// histQuantiles reports the standard exact quantiles over the live ring.
func histQuantiles(h *Histogram) map[string]float64 {
	if h.Count() == 0 {
		return nil
	}
	return map[string]float64{
		"0.5":  h.Quantile(0.5),
		"0.9":  h.Quantile(0.9),
		"0.99": h.Quantile(0.99),
	}
}

func histBuckets(h *Histogram) map[string]int64 {
	out := make(map[string]int64, len(h.bounds))
	for i, b := range h.bounds {
		out[formatFloat(b)] = h.counts[i].Load()
	}
	return out
}

// DumpJSON renders the registry as a JSON array of series — the format
// BENCH artifacts embed.
func (r *Registry) DumpJSON() ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: nil registry")
	}
	families := r.families()
	out := make([]jsonMetric, 0, len(families))
	for _, s := range families {
		jm := jsonMetric{Name: s.name, Type: s.typ, Help: s.help}
		switch {
		case s.hist != nil:
			jm.Buckets = histBuckets(s.hist)
			sum, cnt := s.hist.Sum(), s.hist.Count()
			jm.Sum, jm.Count = &sum, &cnt
			jm.Quantiles = histQuantiles(s.hist)
		case s.histVec != nil:
			order, kids := s.histVec.children()
			for _, lv := range order {
				h := kids[lv]
				jm.Children = append(jm.Children, jsonChildHist{
					Label: lv, Buckets: histBuckets(h), Sum: h.Sum(), Count: h.Count(),
					Quantiles: histQuantiles(h),
				})
			}
		case s.samples != nil:
			for _, smp := range s.samples() {
				jm.Samples = append(jm.Samples, jsonSample{Labels: smp.Labels, Value: smp.Value})
			}
		default:
			v := s.value()
			jm.Value = &v
		}
		out = append(out, jm)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ParsePrometheus parses text exposition output into a flat
// name{labels}→value map, returning an error on any malformed line. It
// exists so tests and the CI observability job can assert that a
// /metrics scrape parses.
//
//lint:ignore testonly test fixture for the darknight, obs and serve tests
func ParsePrometheus(rd io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Split on the last space: the metric name may contain a quoted
		// label set with spaces inside values.
		idx := strings.LastIndexByte(text, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("line %d: no value separator: %q", line, text)
		}
		name, val := text[:idx], text[idx+1:]
		if !validSeriesName(name) {
			return nil, fmt.Errorf("line %d: malformed series name: %q", line, name)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: malformed value %q: %v", line, val, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples found")
	}
	return out, nil
}

// validSeriesName checks `metric_name` or `metric_name{...}` shape.
func validSeriesName(name string) bool {
	base := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return false
		}
		base = name[:i]
	}
	if base == "" {
		return false
	}
	for i, c := range base {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
