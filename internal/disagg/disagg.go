// Package disagg keeps one name for the disaggregated fleet report,
// which lives in internal/cluster (cluster.Simulate with a Disagg
// section). Nothing else is left here: the alias remains only because
// the repository benchmark module reads reports through disagg.Stats,
// and it goes when that module moves to cluster.DisaggStats.
package disagg

import "github.com/skipsim/skip/internal/cluster"

// Stats is the disaggregated fleet report.
type Stats = cluster.DisaggStats
