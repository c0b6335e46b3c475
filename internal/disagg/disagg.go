// Package disagg keeps one name for the disaggregated fleet report,
// which now lives in internal/cluster (see cluster.SimulateDisagg). The
// alias remains because the repository benchmark module reads reports
// through disagg.Stats; it goes when that module moves to
// cluster.DisaggStats. The disaggregation tests live beside it until
// then and move to internal/cluster with it.
package disagg

import "github.com/skipsim/skip/internal/cluster"

// Stats is the disaggregated fleet report.
type Stats = cluster.DisaggStats
