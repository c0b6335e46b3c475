package kvcache

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestStatsAddSumsEveryField sets each ledger field, unexported ones
// included, to a distinct value in two ledgers and checks that Add
// sums all of them: a counter added to Stats later cannot drop out of
// the fleet merge unnoticed.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	field := func(v reflect.Value, i int) reflect.Value {
		f := v.Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	n := va.NumField()
	for i := 0; i < n; i++ {
		if k := va.Field(i).Kind(); k != reflect.Int64 {
			t.Fatalf("Stats.%s is %v; extend this test to cover it", va.Type().Field(i).Name, k)
		}
		field(va, i).SetInt(int64(i + 1))
		field(vb, i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < n; i++ {
		if got, want := field(va, i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add left Stats.%s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// TestReconcileBoundsEvictionsByPlacements checks the eviction law at
// its edge: evictions up to misses + restores + transferred promotions
// reconcile, one more does not.
func TestReconcileBoundsEvictionsByPlacements(t *testing.T) {
	s := Stats{Lookups: 10, Hits: 4, Restored: 2, Misses: 3, Unallocated: 1, promoted: 3}
	s.Evictions = s.Misses + s.Restored + s.promoted
	if err := s.Reconcile(); err != nil {
		t.Fatalf("evictions at the placement bound: %v", err)
	}
	s.Evictions++
	err := s.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "exceed device placements") {
		t.Fatalf("evictions past the placement bound: got %v", err)
	}
	s.promoted = 0
	s.Evictions = s.Misses + s.Restored + 1
	if s.Reconcile() == nil {
		t.Fatal("evictions past misses + restored passed with no promotions")
	}
}
