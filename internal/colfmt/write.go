package colfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/dataset"
)

// Write encodes the dataset as a PCOL file. Sections are emitted in the
// canonical order the reader requires: meta, pipe columns, event columns,
// end marker.
func Write(w io.Writer, d *dataset.Columns) error {
	if d == nil {
		return fmt.Errorf("colfmt: nil dataset")
	}
	if err := consistentLengths(d); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("colfmt: write magic: %w", err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	binary.LittleEndian.PutUint16(hdr[2:4], 0) // flags
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("colfmt: write header: %w", err)
	}

	enc := &sectionWriter{w: bw}
	enc.meta(d)
	pipes, events := uint64(d.NumPipes()), uint64(d.NumFailures())

	enc.column(secPipe, colPipeID, encStr, pipes, func(b []byte) []byte { return appendStrCol(b, d.Registry.ID) })
	enc.dictColumn(secPipe, colPipeClass, pipes, classStrings(d.Registry.Class))
	enc.dictColumn(secPipe, colPipeMaterial, pipes, materialStrings(d.Registry.Material))
	enc.dictColumn(secPipe, colPipeCoating, pipes, coatingStrings(d.Registry.Coating))
	enc.column(secPipe, colPipeDiameter, encF64, pipes, func(b []byte) []byte { return appendF64Col(b, d.Registry.DiameterMM) })
	enc.column(secPipe, colPipeLength, encF64, pipes, func(b []byte) []byte { return appendF64Col(b, d.Registry.LengthM) })
	enc.column(secPipe, colPipeLaidYear, encI32, pipes, func(b []byte) []byte { return appendI32Col(b, d.Registry.LaidYear) })
	enc.dictColumn(secPipe, colPipeSoilCorr, pipes, d.Registry.SoilCorrosivity)
	enc.dictColumn(secPipe, colPipeSoilExp, pipes, d.Registry.SoilExpansivity)
	enc.dictColumn(secPipe, colPipeSoilGeo, pipes, d.Registry.SoilGeology)
	enc.dictColumn(secPipe, colPipeSoilMap, pipes, d.Registry.SoilMap)
	enc.column(secPipe, colPipeTraffic, encF64, pipes, func(b []byte) []byte { return appendF64Col(b, d.Registry.DistToTrafficM) })
	enc.column(secPipe, colPipeX, encF64, pipes, func(b []byte) []byte { return appendF64Col(b, d.Registry.X) })
	enc.column(secPipe, colPipeY, encF64, pipes, func(b []byte) []byte { return appendF64Col(b, d.Registry.Y) })
	enc.column(secPipe, colPipeSegments, encI32, pipes, func(b []byte) []byte { return appendI32Col(b, d.Registry.Segments) })

	enc.column(secEvent, colEventPipe, encU32, events, func(b []byte) []byte { return appendU32Col(b, d.Events.Pipe) })
	enc.column(secEvent, colEventSegment, encI32, events, func(b []byte) []byte { return appendI32Col(b, d.Events.Segment) })
	enc.column(secEvent, colEventYear, encI32, events, func(b []byte) []byte { return appendI32Col(b, d.Events.Year) })
	enc.column(secEvent, colEventDay, encI32, events, func(b []byte) []byte { return appendI32Col(b, d.Events.Day) })
	enc.dictColumn(secEvent, colEventMode, events, modeStrings(d.Events.Mode))

	enc.section(secEnd, 0, 0, 0, nil)
	if enc.err != nil {
		return enc.err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("colfmt: flush: %w", err)
	}
	return nil
}

// WriteFile writes the dataset to path via a temp file + rename, so a
// crashed writer never leaves a truncated .col behind.
func WriteFile(path string, d *dataset.Columns) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("colfmt: %w", err)
	}
	if err := Write(tmp, d); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("colfmt: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("colfmt: %w", err)
	}
	return nil
}

func consistentLengths(d *dataset.Columns) error {
	n, e := d.NumPipes(), d.NumFailures()
	c, ev := &d.Registry, &d.Events
	for _, l := range []int{
		len(c.Class), len(c.Material), len(c.Coating), len(c.DiameterMM),
		len(c.LengthM), len(c.LaidYear), len(c.SoilCorrosivity),
		len(c.SoilExpansivity), len(c.SoilGeology), len(c.SoilMap),
		len(c.DistToTrafficM), len(c.X), len(c.Y), len(c.Segments),
	} {
		if l != n {
			return fmt.Errorf("colfmt: pipe column length %d != %d rows", l, n)
		}
	}
	for _, l := range []int{len(ev.Segment), len(ev.Year), len(ev.Day), len(ev.Mode)} {
		if l != e {
			return fmt.Errorf("colfmt: event column length %d != %d rows", l, e)
		}
	}
	return nil
}

// sectionWriter emits sections, accumulating the first error; payloads are
// built in a scratch buffer reused across sections.
type sectionWriter struct {
	w       *bufio.Writer
	scratch []byte
	err     error
}

func (s *sectionWriter) section(kind, id, enc byte, rows uint64, payload []byte) {
	if s.err != nil {
		return
	}
	var hdr [20]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = kind, id, enc, 0
	binary.LittleEndian.PutUint64(hdr[4:12], rows)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		s.err = fmt.Errorf("colfmt: write section header: %w", err)
		return
	}
	if _, err := s.w.Write(payload); err != nil {
		s.err = fmt.Errorf("colfmt: write section payload: %w", err)
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := s.w.Write(crc[:]); err != nil {
		s.err = fmt.Errorf("colfmt: write section checksum: %w", err)
	}
}

func (s *sectionWriter) meta(d *dataset.Columns) {
	b := s.scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Region)))
	b = append(b, d.Region...)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.ObservedFrom)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(d.ObservedTo)))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.NumPipes()))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.NumFailures()))
	s.scratch = b
	s.section(secMeta, 0, 0, 0, b)
}

func (s *sectionWriter) column(kind, id, enc byte, rows uint64, build func([]byte) []byte) {
	if s.err != nil {
		return
	}
	s.scratch = build(s.scratch[:0])
	s.section(kind, id, enc, rows, s.scratch)
}

func (s *sectionWriter) dictColumn(kind, id byte, rows uint64, vals []string) {
	if s.err != nil {
		return
	}
	b, err := appendDictCol(s.scratch[:0], vals)
	if err != nil {
		s.err = err
		return
	}
	s.scratch = b
	s.section(kind, id, encDict, rows, b)
}

func appendF64Col(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendI32Col(b []byte, v []int32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func appendU32Col(b []byte, v []uint32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// appendStrCol encodes unique strings as one blob plus rows+1 offsets.
func appendStrCol(b []byte, vals []string) []byte {
	blob := 0
	for _, v := range vals {
		blob += len(v)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(blob))
	for _, v := range vals {
		b = append(b, v...)
	}
	off := uint32(0)
	b = binary.LittleEndian.AppendUint32(b, off)
	for _, v := range vals {
		off += uint32(len(v))
		b = binary.LittleEndian.AppendUint32(b, off)
	}
	return b
}

// appendDictCol dictionary-encodes a low-cardinality column: codes are
// assigned in order of first appearance, capped at 256 levels.
func appendDictCol(b []byte, vals []string) ([]byte, error) {
	var dict []string
	codes := make(map[string]int, 8)
	rowCodes := make([]byte, len(vals))
	for i, v := range vals {
		code, ok := codes[v]
		if !ok {
			code = len(dict)
			if code >= 256 {
				return nil, fmt.Errorf("colfmt: dictionary column exceeds 256 distinct values")
			}
			codes[v] = code
			dict = append(dict, v)
		}
		rowCodes[i] = byte(code)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(dict)))
	for _, v := range dict {
		if len(v) > math.MaxUint16 {
			return nil, fmt.Errorf("colfmt: dictionary entry of %d bytes too long", len(v))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(v)))
		b = append(b, v...)
	}
	return append(b, rowCodes...), nil
}

// The typed columns reuse the generic string dict encoder through these
// cheap views (one slice header copy per column, no per-row allocation).

func classStrings(v []dataset.PipeClass) []string {
	out := make([]string, len(v))
	for i, c := range v {
		out[i] = c.String()
	}
	return out
}

func materialStrings(v []dataset.Material) []string {
	out := make([]string, len(v))
	for i, m := range v {
		out[i] = string(m)
	}
	return out
}

func coatingStrings(v []dataset.Coating) []string {
	out := make([]string, len(v))
	for i, c := range v {
		out[i] = string(c)
	}
	return out
}

func modeStrings(v []dataset.FailureMode) []string {
	out := make([]string, len(v))
	for i, m := range v {
		out[i] = string(m)
	}
	return out
}
