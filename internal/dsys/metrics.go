package dsys

import (
	"strconv"
	"sync"
	"time"

	"spacebounds/internal/metrics"
)

// Metric families emitted by the engine. Quorum-round series are labeled by
// region so a sharded store sees per-shard latency; the applies counter is
// node-side (it counts RMWs taking effect on this process's base objects).
const (
	metricRoundSeconds = "spacebounds_dsys_quorum_round_seconds"
	metricRoundsTotal  = "spacebounds_dsys_quorum_rounds_total"
	metricAppliesTotal = "spacebounds_dsys_applies_total"
)

// clusterMetrics holds the cluster's instrumentation handles. It is swapped
// in atomically by SetMetrics so the hot path pays one pointer load (and
// nothing else) when metrics are disabled.
type clusterMetrics struct {
	reg     *metrics.Registry
	applies *metrics.Counter

	mu      sync.RWMutex
	regions map[int]*regionRounds // keyed by region base object ID
}

// regionRounds is the per-region quorum-round instrumentation.
type regionRounds struct {
	latency *metrics.Histogram
	ok      *metrics.Counter
	errs    *metrics.Counter
}

// SetMetrics attaches a metrics registry to the cluster: every quorum round
// from then on observes its latency and outcome, and every RMW that takes
// effect on this cluster's base objects is counted. Passing nil detaches. Regions are labeled by their base object ID
// until LabelRegion gives them a human-readable name.
func (c *Cluster) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		c.met.Store(nil)
		return
	}
	c.met.Store(&clusterMetrics{
		reg:     reg,
		applies: reg.Counter(metricAppliesTotal, "RMWs applied to this node's base objects"),
		regions: make(map[int]*regionRounds),
	})
}

// LabelRegion names the region rooted at base object ID base for metric
// labeling, eagerly creating its quorum-round series so they appear on the
// scrape page (and in the doc-sync walk) before the first round runs.
// A no-op when no registry is attached.
func (c *Cluster) LabelRegion(base int, name string) {
	m := c.met.Load()
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.regions[base] = m.newRegionRounds(name)
}

// newRegionRounds builds the three series for one region label. Caller holds
// m.mu (or is initializing).
func (m *clusterMetrics) newRegionRounds(name string) *regionRounds {
	region := metrics.L("region", name)
	return &regionRounds{
		latency: m.reg.Histogram(metricRoundSeconds, "quorum round latency by region", metrics.LatencyBuckets(), region),
		ok:      m.reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", region, metrics.L("outcome", "ok")),
		errs:    m.reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", region, metrics.L("outcome", "error")),
	}
}

// roundsFor returns the instrumentation for the region rooted at base,
// creating it under a numeric label if the region was never named.
func (m *clusterMetrics) roundsFor(base int) *regionRounds {
	m.mu.RLock()
	rr := m.regions[base]
	m.mu.RUnlock()
	if rr != nil {
		return rr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rr = m.regions[base]; rr == nil {
		rr = m.newRegionRounds(strconv.Itoa(base))
		m.regions[base] = rr
	}
	return rr
}

// observeRound records one finished quorum round for the region at base.
func (m *clusterMetrics) observeRound(base int, start time.Time, err error) {
	rr := m.roundsFor(base)
	rr.latency.ObserveSince(start)
	if err != nil {
		rr.errs.Inc()
	} else {
		rr.ok.Inc()
	}
}
