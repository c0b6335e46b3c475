package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The benchmark host is shared, and its speed drifts by tens of percent
// over minutes as neighbours come and go. Every time metric is therefore
// reported in reference seconds: measured seconds scaled by the host's
// speed at that moment, which the parent process measures with a fixed,
// standard-library-only calibration around each replay. The calibration
// runs in the parent process and shares no code with the simulator: a
// change to the simulator moves the replay, never the calibration.

// referenceCalibration is the calibration's typical time on the host
// the benchmark was defined on (2-vCPU Intel Xeon VM, Go 1.24,
// linux/amd64), so reference seconds read as seconds there.
const referenceCalibration = 70 * time.Millisecond

// hostSpeed runs the calibration once and returns the host's speed
// relative to the reference host: above 1 when it runs faster.
func hostSpeed() float64 {
	return float64(referenceCalibration) / float64(calibrate())
}

type calNode struct {
	key  int64
	next *calNode
	val  float64
}

// calSink keeps the calibration's results alive, so the compiler cannot
// drop the work.
var calSink float64

// calibrate times a fixed mix of what the simulator spends its time on:
// small allocations, map inserts and lookups, sorting and pointer
// chasing, once over a working set larger than the caches and ten times
// over one that fits, then string formatting. Of the kernels tried, this
// mix tracked the replays' drift best on every workload.
func calibrate() time.Duration {
	start := time.Now()
	s := churn(1, 200_000, 1<<18)
	for rep := int64(0); rep < 10; rep++ {
		s += churn(2+rep, 20_000, 1<<14)
	}
	n := 0
	for i := 0; i < 100_000; i++ {
		n += len(fmt.Sprintf("layer%d.op%d", i%32, i))
	}
	calSink = s + float64(n)
	return time.Since(start)
}

// churn builds a linked list of n nodes with keys below keySpace,
// indexes a quarter of them in a map, sorts up to 65536 keys, and sums
// over the map and the list.
func churn(seed int64, n int, keySpace int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[int64]*calNode, n/16)
	var head *calNode
	keys := make([]int64, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		k := rng.Int63n(keySpace)
		head = &calNode{key: k, next: head, val: float64(i) * 1.5}
		if i%4 == 0 {
			m[k] = head
		}
		if len(keys) < cap(keys) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var s float64
	for _, k := range keys {
		if node, ok := m[k]; ok {
			s += node.val
		}
	}
	for node := head; node != nil; node = node.next {
		s += node.val * 0.5
	}
	return s
}
