package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Runtime samples read from runtime/metrics around a timed operation.
const (
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmHeapLive = "/gc/heap/live:bytes"
)

// runtimeSample is the Go runtime's cumulative GC CPU, total CPU and
// allocated bytes at one instant.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmAllocs}}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

// heapSampler tracks the peak live heap — the bytes the last GC cycle
// marked live — while it runs, polling runtime/metrics (no
// stop-the-world). Live bytes, unlike heap in use, do not depend on how
// much garbage awaits the next cycle, so the peak repeats run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: rmHeapLive}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
