package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. On a shared host the speed a program gets drifts
// by tens of percent over minutes with what other tenants run, moving
// every time figure of a workload together. The runner therefore runs a
// fixed reference kernel of its own between the program's calls, on as
// many goroutines as the workload's caller runs, and scales each time
// figure by how fast the reference ran around it: a figure is reported
// as it would read on a host where one reference rep takes refNominal.
// The kernel uses only the standard library and keeps its data in one
// anonymous mapping outside the Go heap: it allocates nothing, so it
// neither paces nor pays for the program's garbage collection, and the
// heap figures do not see it. No change to the program can move it.
// The raw figures are reported beside the scaled ones.

// refNominal is the reference rep time the time metrics are scaled to,
// about what one rep took on the 2-vCPU host the bounds were set on.
const refNominal = time.Millisecond

// refRepsPerRun is how many reps each goroutine makes in one run: a few
// milliseconds, so a run is long beside the scheduler's time slice.
const refRepsPerRun = 4

// refShare is the share of the program's busy time the reference runs.
const refShare = 0.1

// hostRef is the reference kernel's state: a text of decimal numbers it
// parses, sorts and uses to walk a table larger than a core's L2 cache,
// as the program parses traces, orders tasks and chases pointers.
type hostRef struct {
	mem   []byte // the mapping the slices below live in
	text  []byte
	vals  [][]float64 // per goroutine
	table []uint64
	want  uint64   // checksum of one rep
	sums  []uint64 // per goroutine, the last rep's checksum
}

const (
	refNumbers  = 6000
	refDigits   = 8       // each number is refDigits digits and a space
	refTableLen = 1 << 19 // 4 MB
)

// newHostRef maps the kernel's data for par goroutines and fills it.
func newHostRef(par int) (*hostRef, error) {
	par = max(1, par)
	size := 8*refTableLen + 8*refNumbers*par + (refDigits+1)*refNumbers
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host reference: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), (size-(refDigits+1)*refNumbers)/8)
	r := &hostRef{mem: mem, table: words[:refTableLen:refTableLen], text: mem[8*len(words):], sums: make([]uint64, par)}
	for g := 0; g < par; g++ {
		lo := refTableLen + g*refNumbers
		r.vals = append(r.vals, unsafe.Slice((*float64)(unsafe.Pointer(&words[lo])), refNumbers)[:0])
	}
	x := uint64(99)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < refNumbers; i++ {
		n := next()
		for d := refDigits - 1; d >= 0; d-- {
			r.text[i*(refDigits+1)+d] = '0' + byte(n%10)
			n /= 10
		}
		r.text[i*(refDigits+1)+refDigits] = ' '
	}
	for i := range r.table {
		r.table[i] = next()
	}
	r.want = r.rep(0)
	return r, nil
}

// close unmaps the kernel's data.
func (r *hostRef) close() error { return syscall.Munmap(r.mem) }

// rep runs the kernel once on goroutine g's buffer and returns its
// checksum, which is the same on every rep.
func (r *hostRef) rep(g int) uint64 {
	v := r.vals[g][:0]
	var n uint64
	in := false
	for _, c := range r.text {
		if c >= '0' && c <= '9' {
			n = n*10 + uint64(c-'0')
			in = true
		} else if in {
			v = append(v, float64(n)*1.5)
			n, in = 0, false
		}
	}
	slices.Sort(v)
	h := uint64(14695981039346656037)
	idx := uint64(1)
	for _, f := range v {
		idx = (idx*2862933555777941757 + uint64(f)) & (refTableLen - 1)
		h = (h ^ r.table[idx]) * 1099511628211
	}
	r.vals[g] = v
	return h
}

// run makes refRepsPerRun+1 reps on each of the reference's goroutines
// at once and returns the wall time per rep of the last refRepsPerRun,
// or an error if a rep computed a wrong checksum. The first rep is not
// timed: it brings the kernel's data back into the caches the program's
// step just used, so the timed reps do not depend on what the program
// did. With one goroutine it runs on the caller's and allocates
// nothing; with more, starting them allocates a few bytes.
func (r *hostRef) run() (time.Duration, error) {
	r.reps(1)
	t0 := time.Now()
	r.reps(refRepsPerRun)
	d := time.Since(t0) / refRepsPerRun
	for _, sum := range r.sums {
		if sum != r.want {
			return d, fmt.Errorf("host reference computed checksum %x, want %x", sum, r.want)
		}
	}
	return d, nil
}

// reps makes n reps on each goroutine at once.
func (r *hostRef) reps(n int) {
	if len(r.vals) == 1 {
		for i := 0; i < n; i++ {
			r.sums[0] = r.rep(0)
		}
		return
	}
	var wg sync.WaitGroup
	for g := range r.vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.sums[g] = r.rep(g)
			}
		}()
	}
	wg.Wait()
}

// speeds is refNominal over the median rep time and over the total rep
// time per rep: above 1 on a host faster than the nominal one, 1 when
// the reference did not run. Scaling a measured time by a speed gives
// the time on the nominal host. The median suits a median figure; the
// total counts every stall the host imposed, as a throughput does.
func speeds(reps []time.Duration) (median, total float64) {
	if len(reps) == 0 {
		return 1, 1
	}
	s := make([]float64, len(reps))
	sum := 0.0
	for i, d := range reps {
		s[i] = d.Seconds()
		sum += s[i]
	}
	return refNominal.Seconds() / percentile(s, 0.5), refNominal.Seconds() * float64(len(s)) / sum
}

// stealSeconds is the time the hypervisor gave to other guests while this
// machine's CPUs wanted to run: the steal column of /proc/stat, summed
// over CPUs, in seconds (the kernel counts it in 1/100 s). It reports
// false where the system does not provide it.
func stealSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true
}
