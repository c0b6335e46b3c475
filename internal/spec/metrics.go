package spec

import (
	"fmt"
	"reflect"
	"strings"
)

// Derived-metric extraction: a report.metrics section names numeric
// leaves of the finished report by JSON path, and Simulate surfaces each
// as a flat named series (Report.Metrics) — one value for a single run,
// one per point for a sweep — so consumers plotting a sweep need not
// walk nested report documents.
//
// Paths address sections by their report JSON keys ("serve", "cluster",
// "disagg", "offered") and struct fields by their Go names (the stats
// structs serialize field names verbatim), e.g. "serve.P95TTFT",
// "cluster.Chaos.Killed", "disagg.Instances[0].Serve.TokensPerSec".

// name is the metric's series label with its default applied.
func (m *MetricSpec) name() string {
	if m.Name != "" {
		return m.Name
	}
	return m.Path
}

// metricRoots lists the report sections a base kind populates. The
// timeline and profile sections are addressable for every workload kind
// (presence still depends on the matching observability section or
// WithProfile, checked at extraction time like any nil section).
func metricRoots(k Kind) []string {
	switch k {
	case KindRun:
		return []string{"run", "generate", "profile"}
	case KindServe:
		return []string{"serve", "offered", "timeline", "profile"}
	case KindCluster:
		return []string{"cluster", "offered", "timeline", "profile"}
	case KindDisagg:
		return []string{"disagg", "offered", "timeline", "profile"}
	}
	return nil
}

// metricField finds the struct field a path segment names: the json tag
// key where one exists, the exact Go field name otherwise. Fields of an
// embedded struct resolve as the outer struct's own, as in the JSON.
func metricField(t reflect.Type, name string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.PkgPath != "" {
			continue // unexported
		}
		if sf.Anonymous && sf.Type.Kind() == reflect.Struct {
			if inner, ok := metricField(sf.Type, name); ok {
				inner.Index = append([]int{i}, inner.Index...)
				return inner, true
			}
			continue
		}
		tag, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if tag == name || (tag == "" && sf.Name == name) {
			return sf, true
		}
	}
	return reflect.StructField{}, false
}

func numericKind(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// joinWalked extends the resolved-so-far path for error messages.
func joinWalked(walked, name string) string {
	if walked == "" {
		return name
	}
	return walked + "." + name
}

// checkMetricPath type-checks a metric path against the static report
// shape for a base kind: the root must be a section that kind populates,
// every segment must name a field, indexed segments must address lists,
// and the leaf must be numeric. Whether the addressed value is present
// (a nil Chaos section, an index past the instance count) depends on the
// finished report and is checked at extraction time instead.
func checkMetricPath(k Kind, path string) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	roots := metricRoots(k)
	rootOK := false
	for _, r := range roots {
		if segs[0].name == r {
			rootOK = true
		}
	}
	if !rootOK {
		return fmt.Errorf("no section %q in a %s report (have %s)", segs[0].name, k, strings.Join(roots, "|"))
	}
	t := reflect.TypeOf(Report{})
	walked := ""
	for _, seg := range segs {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct {
			return fmt.Errorf("%q does not contain fields", walked)
		}
		sf, ok := metricField(t, seg.name)
		if !ok {
			return fmt.Errorf("no field %q under %q", seg.name, walked)
		}
		walked = joinWalked(walked, seg.name)
		t = sf.Type
		if seg.idx >= 0 {
			for t.Kind() == reflect.Pointer {
				t = t.Elem()
			}
			if t.Kind() != reflect.Slice {
				return fmt.Errorf("%q is not a list", walked)
			}
			t = t.Elem()
			walked += fmt.Sprintf("[%d]", seg.idx)
		}
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if !numericKind(t.Kind()) {
		return fmt.Errorf("%q is not a numeric leaf (it is a %s)", walked, t.Kind())
	}
	return nil
}

// extractMetric walks one finished (non-sweep) report along a validated
// metric path and widens the numeric leaf to float64. Virtual times
// (sim.Time) extract as nanoseconds.
func extractMetric(r *Report, path string) (float64, error) {
	segs, err := splitPath(path)
	if err != nil {
		return 0, err
	}
	v := reflect.ValueOf(r).Elem()
	walked := ""
	for _, seg := range segs {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return 0, fmt.Errorf("section %q is not present in the report", walked)
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return 0, fmt.Errorf("%q does not contain fields", walked)
		}
		sf, ok := metricField(v.Type(), seg.name)
		if !ok {
			return 0, fmt.Errorf("no field %q under %q", seg.name, walked)
		}
		walked = joinWalked(walked, seg.name)
		v = v.FieldByIndex(sf.Index)
		if seg.idx >= 0 {
			for v.Kind() == reflect.Pointer {
				if v.IsNil() {
					return 0, fmt.Errorf("section %q is not present in the report", walked)
				}
				v = v.Elem()
			}
			if v.Kind() != reflect.Slice {
				return 0, fmt.Errorf("%q is not a list", walked)
			}
			if seg.idx >= v.Len() {
				return 0, fmt.Errorf("index %d out of range for %q (%d entries)", seg.idx, walked, v.Len())
			}
			v = v.Index(seg.idx)
			walked += fmt.Sprintf("[%d]", seg.idx)
		}
	}
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return 0, fmt.Errorf("section %q is not present in the report", walked)
		}
		v = v.Elem()
	}
	switch {
	case v.CanInt():
		return float64(v.Int()), nil
	case v.CanUint():
		return float64(v.Uint()), nil
	case v.CanFloat():
		return v.Float(), nil
	}
	return 0, fmt.Errorf("%q is not a numeric leaf (it is a %s)", walked, v.Kind())
}

// attachMetrics extracts every report.metrics leaf from the finished
// report and appends the named series: one value for a single run, one
// per point (in value order) for a sweep.
func (s *Spec) attachMetrics(rep *Report) error {
	for i, m := range s.Report.Metrics {
		var vals []float64
		if rep.Kind == KindSweep {
			vals = make([]float64, len(rep.Sweep))
			for j, pt := range rep.Sweep {
				v, err := extractMetric(pt.Report, m.Path)
				if err != nil {
					return fmt.Errorf("spec: report.metrics[%d] (%s): sweep point %d: %w", i, m.Path, j, err)
				}
				vals[j] = v
			}
		} else {
			v, err := extractMetric(rep, m.Path)
			if err != nil {
				return fmt.Errorf("spec: report.metrics[%d] (%s): %w", i, m.Path, err)
			}
			vals = []float64{v}
		}
		rep.Metrics = append(rep.Metrics, Metric{Name: m.name(), Path: m.Path, Values: vals})
	}
	return nil
}
