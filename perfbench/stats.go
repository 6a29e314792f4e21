package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memWatch samples the live heap — the bytes the last GC marked live,
// so the reading does not swing with where a GC cycle happens to be —
// while a measurement runs and reports its peak, together with the
// bytes allocated over the window.
type memWatch struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peak  uint64
	alloc uint64        // cumulative allocated bytes at start
	cpu   time.Duration // process CPU time at start
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func readHeap() uint64 {
	s := append([]metrics.Sample(nil), heapSample...)
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// startMemWatch begins sampling every 2ms until finish is called.
func startMemWatch() *memWatch {
	runtime.GC()
	w := &memWatch{stop: make(chan struct{}), alloc: totalAlloc(), peak: readHeap(), cpu: cpuTime()}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if h := readHeap(); h > w.peak {
					w.peak = h
				}
			}
		}
	}()
	return w
}

// finish stops the sampler and records in ph the peak live heap, and
// the bytes allocated and CPU time used since the watch started.
func (w *memWatch) finish(ph *phase) {
	close(w.stop)
	w.done.Wait()
	if h := readHeap(); h > w.peak {
		w.peak = h
	}
	ph.peakMB = float64(w.peak) / (1 << 20)
	ph.alloc = totalAlloc() - w.alloc
	ph.cpu = cpuTime() - w.cpu
}

// cpuTime is the process's user plus system CPU time. Time the
// hypervisor gives the host's CPUs to other guests (steal) is not
// charged to it, unlike wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
