package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// nSlices is the number of equal slices a measured window is cut into
// for latency_p99_us (fifteen 1-second slices at the default window).
const nSlices = 15

// maxCallers caps load-generating goroutines and connections: closed
// loop, at most one caller per CPU of the 2-vCPU reference host.
const maxCallers = 2

func callersFor(want int) int {
	n := runtime.NumCPU()
	if n > maxCallers {
		n = maxCallers
	}
	if want < n {
		n = want
	}
	return n
}

// op is one closed-loop caller's operation. call performs operation k
// and reports whether it succeeded with the right answer; a non-zero
// lat replaces the loop's own interval as the operation's latency (the
// windowed fabric caller measures issue → Wait itself). deep, when
// non-nil, is the expensive 1-in-64 check of the last result; it runs
// outside the latency timestamp. drain, when non-nil, settles what the
// caller still has in flight once its loop ends.
type op struct {
	call  func(k uint64) (lat int64, ok bool)
	deep  func() bool
	drain func()
}

const deepEvery = 64

// recorder is one caller's pre-allocated recording storage.
type recorder struct {
	slices [nSlices]hist
	ops    uint64
	failed uint64
}

// record files one completed operation that ended at end (ns since the
// window opened) into its slice.
func (r *recorder) record(end, lat, sliceNs int64, ok bool) {
	i := int(end / sliceNs)
	if i >= nSlices {
		i = nSlices - 1
	}
	r.slices[i].record(lat)
	r.ops++
	if !ok {
		r.failed++
	}
}

// window is what one measured window observed.
type window struct {
	callers  int
	seconds  float64
	ops      uint64
	failed   uint64
	all      hist
	slices   [nSlices]hist
	cpuUs    float64
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
}

func (w *window) opsPerS() float64 { return float64(w.ops) / w.seconds }
func (w *window) p50us() float64   { return w.all.quantile(0.50) / 1e3 }
func (w *window) p999us() float64  { return w.all.quantile(0.999) / 1e3 }
func (w *window) p99us() float64 {
	if v := sliceP99(w.slices[:]); v > 0 {
		return v / 1e3
	}
	return w.all.quantile(0.99) / 1e3
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one closed-loop caller per op for warm, then for dur,
// and returns what the second interval observed. Callers run straight
// through both; an operation belongs to the window when it completes
// inside it. Process CPU and allocation counters are read at the two
// window edges by this goroutine, so they cover client, server and GC
// together.
func measure(ops []op, warm, dur time.Duration) *window {
	recs := make([]*recorder, len(ops))
	for i := range recs {
		recs[i] = new(recorder)
	}
	sliceNs := int64(dur) / nSlices
	if sliceNs < 1 {
		sliceNs = 1
	}
	base := time.Now()
	t0, t1 := int64(warm), int64(warm+dur)

	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(o op, r *recorder) {
			defer wg.Done()
			if o.drain != nil {
				defer o.drain()
			}
			prev := int64(time.Since(base))
			for k := uint64(0); ; k++ {
				lat, ok := o.call(k)
				now := int64(time.Since(base))
				if lat == 0 {
					lat = now - prev
				}
				prev = now
				if now >= t1 {
					return
				}
				if o.deep != nil && k%deepEvery == 0 {
					ok = o.deep() && ok
					prev = int64(time.Since(base))
				}
				if now >= t0 {
					r.record(now-t0, lat, sliceNs, ok)
				}
			}
		}(ops[i], recs[i])
	}

	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(base.Add(warm)))
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	time.Sleep(time.Until(base.Add(warm + dur)))
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	wg.Wait()

	w := &window{
		callers:  len(ops),
		seconds:  dur.Seconds(),
		cpuUs:    float64(c1-c0) / 1e3,
		mallocs:  m1.Mallocs - m0.Mallocs,
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	for _, r := range recs {
		w.ops += r.ops
		w.failed += r.failed
		for i := range r.slices {
			w.slices[i].merge(&r.slices[i])
			w.all.merge(&r.slices[i])
		}
	}
	return w
}
