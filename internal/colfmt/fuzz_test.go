package colfmt

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// FuzzReadDataset hammers the streaming reader with corrupt inputs. The
// invariant: Read either fails cleanly or yields columns that survive a
// re-encode/re-decode round trip and rebuild from their materialized rows
// through dataset.FromRows without error and with the same per-pipe
// histories — it never panics, its validation is at least as strict as
// the row constructor's, and its allocations are bounded by the input size
// (enforced structurally by the budget charged in reader.take, exercised
// here by headers declaring absurd lengths).
func FuzzReadDataset(f *testing.F) {
	d := testNetwork(f, 0.02, 7)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()

	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte("PCOL"))
	for _, n := range []int{8, 28, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if n <= len(raw) {
			f.Add(raw[:n])
		}
	}
	// Wrong magic / future version / nonzero flags.
	for _, i := range []int{0, 4, 6} {
		b := append([]byte(nil), raw...)
		b[i] ^= 0xFF
		f.Add(b)
	}
	// Flip a CRC-protected payload byte and a section-length byte.
	for _, i := range []int{64, 100, len(raw) / 2} {
		if i < len(raw) {
			b := append([]byte(nil), raw...)
			b[i] ^= 0x10
			f.Add(b)
		}
	}
	// Oversized length prefix: blow up the meta section's payload length.
	b := append([]byte(nil), raw...)
	for i := 20; i < 28 && i < len(b); i++ {
		b[i] = 0xFF
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Anything the reader accepts must re-encode and decode to the
		// same columns (byte layout may differ — e.g. dictionary order is
		// canonicalized — but values must not).
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("re-encode of accepted dataset failed: %v", err)
		}
		d2, err := Read(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("re-read of re-encoded dataset failed: %v", err)
		}
		if !reflect.DeepEqual(d.Registry, d2.Registry) || !reflect.DeepEqual(d.Events, d2.Events) {
			t.Fatal("columns changed across re-encode round trip")
		}
		rows, err := dataset.FromRows(d.Region, d.ObservedFrom, d.ObservedTo, d.Pipes(), d.Failures())
		if err != nil {
			t.Fatalf("accepted columns fail to rebuild from rows: %v", err)
		}
		for i := 0; i < d.NumPipes(); i++ {
			if got, want := rows.FailureCount(i, d.ObservedFrom, d.ObservedTo), d.FailureCount(i, d.ObservedFrom, d.ObservedTo); got != want {
				t.Fatalf("pipe %d: %d failures after the row rebuild, %d before", i, got, want)
			}
		}
		for e, pipe := range d.Events.Pipe {
			i, y := int(pipe), int(d.Events.Year[e])
			if got, want := rows.FailureCount(i, y, y), d.FailureCount(i, y, y); got != want {
				t.Fatalf("pipe %d year %d: %d failures after the row rebuild, %d before", i, y, got, want)
			}
		}
	})
}
