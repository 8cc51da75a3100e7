package ops

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// claimMorsels claims morsels from a shared counter on a few goroutines,
// as exec.Pool does, so morsels finish out of order under -race.
type claimMorsels struct{ workers, morsel int }

func (c claimMorsels) Workers() int    { return c.workers }
func (c claimMorsels) MorselSize() int { return c.morsel }
func (c claimMorsels) ForEach(total int, fn func(m, start, end int)) {
	count := (total + c.morsel - 1) / c.morsel
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := int(next.Add(1) - 1); m < count; m = int(next.Add(1) - 1) {
				fn(m, m*c.morsel, min((m+1)*c.morsel, total))
			}
		}()
	}
	wg.Wait()
}

// TestStopOnDetectStopsAtStride runs detecting scans over a three-stride
// column with flips in strides 0 and 2 under a serial run, a pool at the
// default morsel size and a pool of 8-row morsels. With StopOnDetect
// every runner stops after stride 0 with the same log - the stride-0
// positions only - and hands back every borrowed buffer; without it
// every runner logs all the flips. A flip in the last stride alone has
// nothing left to stop.
func TestStopOnDetectStopsAtStride(t *testing.T) {
	n := 3 * StopStride
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 200)
	}
	col := harden(t, tinyColumn(t, "v", vals), code8)
	first, last := []uint64{100, StopStride - 1}, uint64(2*StopStride+5)
	for _, p := range append(append([]uint64(nil), first...), last) {
		col.Corrupt(int(p), 1<<3)
	}
	runners := []struct {
		name string
		par  Parallel
	}{
		{"serial", nil},
		{"pool-64Ki", claimMorsels{workers: 4, morsel: StopStride / 4}},
		{"pool-8", claimMorsels{workers: 4, morsel: 8}},
	}
	kernels := map[string]func(o *Opts) error{
		"filter": func(o *Opts) error {
			_, err := Filter(col, 0, 150, o)
			return err
		},
		"delta": func(o *Opts) error {
			_, release, err := Delta(col, o)
			if err == nil {
				release()
			}
			return err
		},
	}
	for kname, kernel := range kernels {
		var stopped *ErrorLog
		for _, r := range runners {
			before := LiveScratch()
			log := NewErrorLog()
			err := kernel(&Opts{Detect: true, HardenIDs: true, Log: log, Par: r.par, StopOnDetect: true})
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("%s/%s: err %v, want ErrStopped", kname, r.name, err)
			}
			if got, err := log.Positions("v"); err != nil || !reflect.DeepEqual(got, first) {
				t.Fatalf("%s/%s: stopped log %v (%v), want %v", kname, r.name, got, err, first)
			}
			if stopped == nil {
				stopped = log
			} else if !log.Equal(stopped) {
				t.Fatalf("%s/%s: stopped log differs from the serial one", kname, r.name)
			}
			if got := LiveScratch(); got != before {
				t.Fatalf("%s/%s: %d scratch buffers live after the stop, want %d", kname, r.name, got, before)
			}

			log = NewErrorLog()
			if err := kernel(&Opts{Detect: true, HardenIDs: true, Log: log, Par: r.par}); err != nil {
				t.Fatalf("%s/%s without stop: %v", kname, r.name, err)
			}
			if got, _ := log.Positions("v"); !reflect.DeepEqual(got, append(append([]uint64(nil), first...), last)) {
				t.Fatalf("%s/%s without stop: log %v, want both strides' flips", kname, r.name, got)
			}
		}
	}

	for _, p := range first {
		col.Corrupt(int(p), 1<<3) // flipping back leaves stride 2 alone
	}
	for _, r := range runners {
		log := NewErrorLog()
		if _, err := Filter(col, 0, 150, &Opts{Detect: true, HardenIDs: true, Log: log, Par: r.par, StopOnDetect: true}); err != nil {
			t.Fatalf("%s: a detection in the last stride must complete the scan: %v", r.name, err)
		}
		if got, _ := log.Positions("v"); !reflect.DeepEqual(got, []uint64{last}) {
			t.Fatalf("%s: log %v, want [%d]", r.name, got, last)
		}
	}
}
