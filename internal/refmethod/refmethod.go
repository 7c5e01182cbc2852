// Package refmethod implements the "current best practice" that §VII-B
// compares Tiresias against: control charts applied to time series of
// aggregates at the first network level (the VHO level). The approach
// monitors each depth-1 node's aggregate count series and raises an
// alarm when a value escapes the control limits derived from a
// trailing window — a Shewhart individuals chart. It does not scale
// below the first level, which is exactly the blind spot Tiresias'
// "new anomaly" cases land in.
package refmethod

import (
	"fmt"
	"math"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

// Alarm is one control-chart violation.
type Alarm struct {
	// Key is the depth-1 node whose chart fired.
	Key hierarchy.Key
	// Instance is the time instance (timeunit index) of the alarm.
	Instance int
	// Value is the observed aggregate.
	Value float64
	// Mean and Sigma are the chart statistics at alarm time.
	Mean, Sigma float64
}

// Config parameterizes the control chart.
type Config struct {
	// K is the control-limit width in standard deviations
	// (classically 3).
	K float64
	// Window is the number of trailing timeunits the chart
	// statistics are estimated from.
	Window int
	// MinSigma floors the standard deviation estimate so constant
	// series do not alarm on noise.
	MinSigma float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("refmethod: K must be > 0, got %v", c.K)
	}
	if c.Window < 2 {
		return fmt.Errorf("refmethod: Window must be >= 2, got %d", c.Window)
	}
	if c.MinSigma < 0 {
		return fmt.Errorf("refmethod: MinSigma must be >= 0, got %v", c.MinSigma)
	}
	return nil
}

// Chart monitors the depth-1 aggregates of a timeunit stream.
type Chart struct {
	cfg  Config
	tree *hierarchy.Tree
	// history holds a depth-1 node's trailing values; a node has an
	// entry from the first unit that touches it or a descendant.
	history  map[int][]float64
	sum      map[int]float64 // the current unit's depth-1 aggregates
	instance int
}

// New creates a Chart over the units of tree (the tree a collected
// stream's IDs name).
func New(cfg Config, tree *hierarchy.Tree) (*Chart, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Chart{
		cfg:     cfg,
		tree:    tree,
		history: make(map[int][]float64),
		sum:     make(map[int]float64),
	}, nil
}

// Observe ingests one timeunit and returns any alarms for it, in node
// ID order. The first Window units per node are used purely for
// calibration.
func (c *Chart) Observe(u *algo.DenseUnit) []Alarm {
	defer func() { c.instance++ }()
	clear(c.sum)
	vals := u.Values()
	for i, id := range u.IDs() {
		n := int(id)
		if c.tree.Depth(n) == 0 {
			continue
		}
		for c.tree.Depth(n) > 1 {
			n = c.tree.Parent(n)
		}
		c.sum[n] += vals[i]
		if _, ok := c.history[n]; !ok {
			c.history[n] = nil
		}
	}
	var alarms []Alarm
	for _, n32 := range c.tree.Level(1) {
		n := int(n32)
		h, ok := c.history[n]
		if !ok {
			continue
		}
		v := c.sum[n]
		if len(h) >= c.cfg.Window {
			mean, sigma := stats(h)
			if sigma < c.cfg.MinSigma {
				sigma = c.cfg.MinSigma
			}
			if v > mean+c.cfg.K*sigma {
				alarms = append(alarms, Alarm{
					Key:      c.tree.Key(n),
					Instance: c.instance,
					Value:    v,
					Mean:     mean,
					Sigma:    sigma,
				})
			}
		}
		h = append(h, v)
		if len(h) > c.cfg.Window {
			h = h[1:]
		}
		c.history[n] = h
	}
	return alarms
}

func stats(h []float64) (mean, sigma float64) {
	for _, v := range h {
		mean += v
	}
	mean /= float64(len(h))
	var ss float64
	for _, v := range h {
		ss += (v - mean) * (v - mean)
	}
	sigma = math.Sqrt(ss / float64(len(h)))
	return mean, sigma
}
