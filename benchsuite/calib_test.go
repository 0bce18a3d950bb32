package main

import (
	"sync"
	"testing"
	"time"
)

// TestCalibrationKernelAllocatesNothing keeps a reading from feeding
// the workload's garbage collector.
func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	s := c.states[0]
	if n := testing.AllocsPerRun(3, func() { s.kernel(c.next, 0) }); n != 0 {
		t.Errorf("kernel allocates %v times per reading", n)
	}
}

// TestPacerPausesEveryClient runs three clients that pause 3, 6 and 9
// times with the interval always up: every pause is a barrier with one
// reading, and a client that leaves early must not hold the others up.
func TestPacerPausesEveryClient(t *testing.T) {
	c := newCalibrator()
	p := newPacer(c, 3, 0)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.leave()
			for n := 0; n < 3*(i+1); n++ {
				p.pause()
			}
		}(i)
	}
	wg.Wait()
	if len(c.readings) != 9 {
		t.Fatalf("%d readings, want 9", len(c.readings))
	}
	for _, r := range c.readings {
		if !(r > 0) {
			t.Errorf("reading %v, want > 0", r)
		}
	}
	if p.wall <= 0 || p.cpu <= 0 {
		t.Errorf("paused wall %v cpu %v, want both > 0", p.wall, p.cpu)
	}
}

// TestPacerWithoutCalibratorNeverPauses is the traced window's case.
func TestPacerWithoutCalibratorNeverPauses(t *testing.T) {
	p := newPacer(nil, 2, 0)
	done := make(chan struct{})
	go func() {
		p.pause()
		p.leave()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pause blocked without a calibrator")
	}
}
