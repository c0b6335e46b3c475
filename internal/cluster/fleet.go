package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
)

// FleetGroup is one homogeneous slice of a fleet: count instances of
// one platform.
type FleetGroup struct {
	Platform *hw.Platform
	Count    int
}

// FleetConfigs expands fleet groups over a base serving config: every
// instance inherits the base (model, policy, KV knobs, SLO) with its
// group's platform substituted in. This is the common case — a
// heterogeneous fleet serving one model — while callers needing
// per-instance knobs build Config.Instances by hand. Groups with a
// missing platform or a non-positive count are rejected: they used to
// expand to a silently empty (or truncated) fleet that only failed
// later, far from the mistake.
func FleetConfigs(groups []FleetGroup, base serve.Config) ([]serve.Config, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one group")
	}
	var cfgs []serve.Config
	for gi, g := range groups {
		if g.Platform == nil {
			return nil, fmt.Errorf("cluster: fleet group %d needs a platform", gi)
		}
		if g.Count <= 0 {
			return nil, fmt.Errorf("cluster: fleet group %d (%s) needs a positive count, got %d", gi, g.Platform.Name, g.Count)
		}
		for i := 0; i < g.Count; i++ {
			cfg := base
			cfg.Platform = g.Platform
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, nil
}
