package secmem

import (
	"testing"

	"gpusecmem/internal/geometry"
)

func TestScrubCleanCounterMode(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	for i := uint64(0); i < 20; i++ {
		line := make([]byte, geometry.LineSize)
		fillPattern(line, byte(i))
		if err := e.WriteLine(i*geometry.LineSize, line); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.VerifyAll()
	if !rep.OK() {
		t.Fatalf("clean memory failed scrub: %v", rep.Violations[0])
	}
	if rep.LinesChecked != 20 {
		t.Fatalf("checked %d lines, want 20", rep.LinesChecked)
	}
	if rep.LinesSkipped != testRegion/geometry.LineSize-20 {
		t.Fatalf("skipped %d", rep.LinesSkipped)
	}
}

func TestScrubFindsSilentTamperCounterMode(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	for i := uint64(0); i < 10; i++ {
		if err := e.WriteLine(i*geometry.LineSize, make([]byte, geometry.LineSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Tamper two lines that are never read again — a scrub must still
	// find them.
	for _, a := range []uint64{2 * geometry.LineSize, 7 * geometry.LineSize} {
		raw := e.Backing().Snapshot(a, 1)
		e.Backing().Write(a, []byte{raw[0] ^ 0x01})
	}
	rep := e.VerifyAll()
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(rep.Violations))
	}
	if rep.Violations[0].Addr > rep.Violations[1].Addr {
		t.Fatal("violations not in address order")
	}
}

func TestScrubFindsCounterReplay(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	if err := e.WriteLine(0x400, make([]byte, geometry.LineSize)); err != nil {
		t.Fatal(err)
	}
	lay := e.Layout()
	ctrAddr := lay.CounterLineAddr(lay.CounterLine(0x400))
	old := e.Backing().Snapshot(ctrAddr, geometry.LineSize)
	if err := e.WriteLine(0x400, make([]byte, geometry.LineSize)); err != nil {
		t.Fatal(err)
	}
	e.Backing().Write(ctrAddr, old)
	rep := e.VerifyAll()
	if rep.OK() {
		t.Fatal("scrub missed a counter replay")
	}
	if rep.Violations[0].Kind != "tree" {
		t.Fatalf("kind = %s", rep.Violations[0].Kind)
	}
}

func TestScrubCleanDirect(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
	for i := uint64(0); i < 20; i++ {
		line := make([]byte, geometry.LineSize)
		fillPattern(line, byte(i))
		if err := e.WriteLine(i*geometry.LineSize, line); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.VerifyAll()
	if !rep.OK() || rep.LinesChecked != 20 {
		t.Fatalf("scrub: ok=%v checked=%d", rep.OK(), rep.LinesChecked)
	}
}

func TestScrubFindsTamperDirect(t *testing.T) {
	e := MustDirect(testRegion, testKeys(), FullProtection)
	if err := e.WriteLine(0x800, make([]byte, geometry.LineSize)); err != nil {
		t.Fatal(err)
	}
	raw := e.Backing().Snapshot(0x800+32, 1)
	e.Backing().Write(0x800+32, []byte{raw[0] ^ 0xff})
	rep := e.VerifyAll()
	if rep.OK() {
		t.Fatal("scrub missed a direct-mode tamper")
	}
}

// TestScrubDoesNotPerturbState: VerifyAll is read-only — a scrub
// between writes and reads changes nothing.
func TestScrubDoesNotPerturbState(t *testing.T) {
	e := MustCounterMode(testRegion, testKeys(), FullProtection)
	line := make([]byte, geometry.LineSize)
	fillPattern(line, 0x5a)
	if err := e.WriteLine(0, line); err != nil {
		t.Fatal(err)
	}
	before := e.Backing().Snapshot(0, geometry.LineSize)
	e.VerifyAll()
	after := e.Backing().Snapshot(0, geometry.LineSize)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("scrub modified ciphertext")
		}
	}
	got := make([]byte, geometry.LineSize)
	if err := e.ReadLine(0, got); err != nil {
		t.Fatal(err)
	}
}
