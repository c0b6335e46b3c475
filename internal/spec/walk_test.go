package spec

import (
	"testing"

	"github.com/skipsim/skip/internal/cluster"
)

// TestResolveFieldErrors pins the exact text of every error the
// spec-document walk (sweep.field) produces, and the leaves it does
// resolve.
func TestResolveFieldErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Platform: "GH200", Model: "gpt2",
			Workload: &WorkloadSpec{Requests: 8},
			Serve:    &ServeSpec{MaxBatch: 4},
		}
	}
	withFleet := func() *Spec {
		s := base()
		s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{{Platform: "GH200", Count: 2}}}
		return s
	}
	cases := []struct {
		name string
		s    *Spec
		path string
		want string
	}{
		{"absent section", base(), "fleet.router", `section "fleet" is not present in the base document`},
		{"absent leaf section", base(), "fleet", `section "fleet" is not present in the base document`},
		{"absent indexed section", base(), "report.metrics[0].path", `section "report" is not present in the base document`},
		{"no field at the root", base(), "turbo", `no field "turbo" under the document root`},
		{"no field nested", base(), "workload.nope", `no field "nope" under "workload"`},
		{"no field under an index", withFleet(), "fleet.groups[0].nope", `no field "nope" under "fleet.groups[0]"`},
		{"no fields in a leaf", base(), "workload.requests.x", `"workload.requests" does not contain fields`},
		{"not a list", base(), "workload[0].requests", `"workload" is not a list`},
		{"index out of range", withFleet(), "fleet.groups[2].count", `index 2 out of range for "fleet.groups" (1 entries)`},
		{"non-numeric leaf", withFleet(), "fleet.groups", `"fleet.groups" is not a numeric or string leaf (it is a slice)`},
		{"malformed index", base(), "workload.requests[x]", `malformed index in segment "requests[x]"`},
	}
	for _, tc := range cases {
		_, err := resolveField(tc.s, tc.path)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: resolveField(%q) error = %v, want %q", tc.name, tc.path, err, tc.want)
		}
	}
	s := withFleet()
	v, err := resolveField(s, "fleet.groups[0].count")
	if err != nil || v.Int() != 2 || !v.CanSet() {
		t.Fatalf("fleet.groups[0].count = %v (settable %v), %v; want settable 2", v, v.CanSet(), err)
	}
	v.SetInt(5)
	if s.Fleet.Groups[0].Count != 5 {
		t.Errorf("setting the resolved leaf left count at %d", s.Fleet.Groups[0].Count)
	}
	if v, err := resolveField(s, "model"); err != nil || v.String() != "gpt2" {
		t.Errorf("model = %v, %v; want gpt2", v, err)
	}
}

// TestExtractMetricErrors pins the exact text of every error the
// report walk (report.metrics paths) produces, and the leaves it does
// extract, through an embedded section included.
func TestExtractMetricErrors(t *testing.T) {
	rep := &Report{
		Kind:    KindCluster,
		Offered: 3,
		Cluster: &cluster.Stats{
			RouterPolicy: "least-queue",
			Instances:    []cluster.InstanceStats{{Name: "a", Routed: 2}, {Name: "b", Routed: 1}},
		},
	}
	rep.Cluster.P95TTFT = 7
	cases := []struct {
		name string
		path string
		want string
	}{
		{"absent section", "disagg.HandedOff", `section "disagg" is not present in the report`},
		{"absent leaf section", "timeline", `section "timeline" is not present in the report`},
		{"absent indexed section", "cluster.Routing.Decisions[0].Outstanding", `section "cluster.Routing" is not present in the report`},
		{"no field at the root", "turbo", `no field "turbo" under ""`},
		{"no field nested", "cluster.Nope", `no field "Nope" under "cluster"`},
		{"no field under an index", "cluster.Instances[0].Nope", `no field "Nope" under "cluster.Instances[0]"`},
		{"no fields in a leaf", "cluster.Offered.x", `"cluster.Offered" does not contain fields`},
		{"not a list", "cluster.Offered[0]", `"cluster.Offered" is not a list`},
		{"index out of range", "cluster.Instances[2].Routed", `index 2 out of range for "cluster.Instances" (2 entries)`},
		{"non-numeric leaf", "cluster.RouterPolicy", `"cluster.RouterPolicy" is not a numeric leaf (it is a string)`},
		{"malformed index", "cluster.Instances[-1].Routed", `malformed index in segment "Instances[-1]"`},
	}
	for _, tc := range cases {
		_, err := extractMetric(rep, tc.path)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: extractMetric(%q) error = %v, want %q", tc.name, tc.path, err, tc.want)
		}
	}
	for path, want := range map[string]float64{
		"offered":                     3,
		"cluster.Instances[1].Routed": 1,
		"cluster.P95TTFT":             7, // through the embedded Pooled section
	} {
		if got, err := extractMetric(rep, path); err != nil || got != want {
			t.Errorf("extractMetric(%q) = %v, %v; want %v", path, got, err, want)
		}
	}
}
