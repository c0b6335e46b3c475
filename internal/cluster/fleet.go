package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/serve"
)

// FleetGroup is one homogeneous slice of a fleet: count instances of
// one platform, optionally restricted to a disaggregation role.
type FleetGroup struct {
	Platform *hw.Platform
	Count    int
	// Role is the disaggregation role of the group's instances:
	// "prefill", "decode", "both", or "" (no disaggregation — the plain
	// cluster simulator, which ignores the field). See ParseRole.
	Role string
}

// fleetRoles lists the role suffixes ParseFleet accepts.
var fleetRoles = map[string]bool{"prefill": true, "decode": true, "both": true}

// ParseFleet parses a CLI fleet spec like "GH200:4,Intel+H100:4" into
// fleet groups, resolving each platform from the catalog. Platform
// names may contain '+' but not ':', ',' or '/'. A disaggregated fleet
// tags each group with a role — "GH200:2/prefill,Intel+H100:6/decode"
// — and the same platform may then appear once per role.
func ParseFleet(spec string) ([]FleetGroup, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty fleet spec")
	}
	var groups []FleetGroup
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, countStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: fleet entry %q needs the form platform:count[/role]", part)
		}
		countStr, role, hasRole := strings.Cut(countStr, "/")
		if hasRole {
			role = strings.TrimSpace(role)
			if !fleetRoles[role] {
				return nil, fmt.Errorf("cluster: fleet entry %q: unknown role %q (have prefill|decode|both)", part, role)
			}
		}
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("cluster: fleet entry %q needs a positive instance count", part)
		}
		p, err := hw.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		key := p.Name + "/" + role
		if seen[key] {
			return nil, fmt.Errorf("cluster: fleet lists platform %q twice in the same role; merge the counts into one entry", p.Name)
		}
		seen[key] = true
		groups = append(groups, FleetGroup{Platform: p, Count: count, Role: role})
	}
	return groups, nil
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
