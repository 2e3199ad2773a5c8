package colfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
)

// chunkSize is the granularity of payload reads: CRC accumulation and typed
// decoding proceed chunk by chunk through one reused scratch buffer, so a
// hostile payload-length header can never force an allocation larger than
// the bytes actually present.
const chunkSize = 1 << 20

// ReadFile decodes the PCOL file at path in one streaming pass.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	d, err := Read(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("colfmt: read %s: %w", path, err)
	}
	return d, nil
}

// Read decodes a PCOL stream of at most size bytes. The size bound is what
// keeps allocation proportional to real input rather than to whatever a
// corrupt header claims: every declared section length is charged against
// it before any buffer is sized. The decoded Dataset holds one typed slice
// per column — allocation count is O(columns), independent of row count.
func Read(r io.Reader, size int64) (*Dataset, error) {
	rd := &reader{br: bufio.NewReaderSize(r, 1<<16), budget: size}
	return rd.dataset()
}

// expected per-column encodings, in required file order.
var (
	pipeEncodings = [numPipeCols]byte{
		colPipeID:       encStr,
		colPipeClass:    encDict,
		colPipeMaterial: encDict,
		colPipeCoating:  encDict,
		colPipeDiameter: encF64,
		colPipeLength:   encF64,
		colPipeLaidYear: encI32,
		colPipeSoilCorr: encDict,
		colPipeSoilExp:  encDict,
		colPipeSoilGeo:  encDict,
		colPipeSoilMap:  encDict,
		colPipeTraffic:  encF64,
		colPipeX:        encF64,
		colPipeY:        encF64,
		colPipeSegments: encI32,
	}
	eventEncodings = [numEventCols]byte{
		colEventPipe:    encU32,
		colEventSegment: encI32,
		colEventYear:    encI32,
		colEventDay:     encI32,
		colEventMode:    encDict,
	}
)

type reader struct {
	br      *bufio.Reader
	budget  int64
	scratch []byte
}

// take charges n declared bytes against the remaining input budget.
func (r *reader) take(n uint64) error {
	if r.budget < 0 || n > uint64(r.budget) {
		return fmt.Errorf("declared length %d exceeds remaining input", n)
	}
	r.budget -= int64(n)
	return nil
}

func (r *reader) readFull(b []byte) error {
	if _, err := io.ReadFull(r.br, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("truncated file")
		}
		return err
	}
	return nil
}

func (r *reader) chunkBuf() []byte {
	if len(r.scratch) < chunkSize {
		r.scratch = make([]byte, chunkSize)
	}
	return r.scratch
}

type secHdr struct {
	kind, id, enc byte
	rows          uint64
	payloadLen    uint64
}

func (r *reader) sectionHeader() (secHdr, error) {
	if err := r.take(20); err != nil {
		return secHdr{}, fmt.Errorf("section header: %w", err)
	}
	var b [20]byte
	if err := r.readFull(b[:]); err != nil {
		return secHdr{}, err
	}
	if b[3] != 0 {
		return secHdr{}, fmt.Errorf("nonzero reserved byte in section header")
	}
	return secHdr{
		kind:       b[0],
		id:         b[1],
		enc:        b[2],
		rows:       binary.LittleEndian.Uint64(b[4:12]),
		payloadLen: binary.LittleEndian.Uint64(b[12:20]),
	}, nil
}

// payload reads one section body, accumulating its CRC; finish verifies the
// trailing checksum and that exactly the declared bytes were consumed.
type payload struct {
	r    *reader
	left uint64
	crc  uint32
}

func (r *reader) payload(h secHdr) (*payload, error) {
	if err := r.take(h.payloadLen); err != nil {
		return nil, fmt.Errorf("section payload: %w", err)
	}
	if err := r.take(4); err != nil {
		return nil, fmt.Errorf("section checksum: %w", err)
	}
	return &payload{r: r, left: h.payloadLen}, nil
}

func (p *payload) read(b []byte) error {
	if uint64(len(b)) > p.left {
		return fmt.Errorf("section payload shorter than its contents require")
	}
	if err := p.r.readFull(b); err != nil {
		return err
	}
	p.crc = crc32.Update(p.crc, crc32.IEEETable, b)
	p.left -= uint64(len(b))
	return nil
}

func (p *payload) finish() error {
	if p.left != 0 {
		return fmt.Errorf("section payload has %d undecoded trailing bytes", p.left)
	}
	var b [4]byte
	if err := p.r.readFull(b[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(b[:]); got != p.crc {
		return fmt.Errorf("section checksum mismatch: file says %#08x, payload hashes to %#08x", got, p.crc)
	}
	return nil
}

func (r *reader) dataset() (*Dataset, error) {
	var hdr [8]byte
	if err := r.take(8); err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	if err := r.readFull(hdr[:]); err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("colfmt: bad magic %q: not a PCOL file", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, fmt.Errorf("colfmt: unsupported format version %d (reader supports %d)", v, Version)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return nil, fmt.Errorf("colfmt: unsupported flags %#04x", f)
	}

	d := &Dataset{}
	numPipes, numEvents, err := r.meta(d)
	if err != nil {
		return nil, fmt.Errorf("colfmt: meta section: %w", err)
	}
	for id := 0; id < numPipeCols; id++ {
		if err := r.pipeColumn(d, byte(id), numPipes); err != nil {
			return nil, fmt.Errorf("colfmt: pipe column %d: %w", id, err)
		}
	}
	for id := 0; id < numEventCols; id++ {
		if err := r.eventColumn(d, byte(id), numEvents, numPipes); err != nil {
			return nil, fmt.Errorf("colfmt: event column %d: %w", id, err)
		}
	}
	h, err := r.sectionHeader()
	if err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	if h.kind != secEnd || h.id != 0 || h.enc != 0 || h.rows != 0 || h.payloadLen != 0 {
		return nil, fmt.Errorf("colfmt: expected end marker, got section kind %d", h.kind)
	}
	p, err := r.payload(h)
	if err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	if err := p.finish(); err != nil {
		return nil, fmt.Errorf("colfmt: end marker: %w", err)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("colfmt: trailing data after end marker")
	}

	d.buildEventIndex()
	if err := d.check(); err != nil {
		return nil, err
	}
	return d, nil
}

func (r *reader) meta(d *Dataset) (numPipes, numEvents int, err error) {
	h, err := r.sectionHeader()
	if err != nil {
		return 0, 0, err
	}
	if h.kind != secMeta || h.id != 0 || h.enc != 0 || h.rows != 0 {
		return 0, 0, fmt.Errorf("expected meta section first, got kind %d", h.kind)
	}
	p, err := r.payload(h)
	if err != nil {
		return 0, 0, err
	}
	var lenb [4]byte
	if err := p.read(lenb[:]); err != nil {
		return 0, 0, err
	}
	regionLen := uint64(binary.LittleEndian.Uint32(lenb[:]))
	if 4+regionLen+32 != h.payloadLen {
		return 0, 0, fmt.Errorf("payload length %d inconsistent with region length %d", h.payloadLen, regionLen)
	}
	region := make([]byte, regionLen)
	if err := p.read(region); err != nil {
		return 0, 0, err
	}
	var rest [32]byte
	if err := p.read(rest[:]); err != nil {
		return 0, 0, err
	}
	if err := p.finish(); err != nil {
		return 0, 0, err
	}
	d.Region = string(region)
	d.ObservedFrom = int(int64(binary.LittleEndian.Uint64(rest[0:8])))
	d.ObservedTo = int(int64(binary.LittleEndian.Uint64(rest[8:16])))
	pipes := binary.LittleEndian.Uint64(rest[16:24])
	events := binary.LittleEndian.Uint64(rest[24:32])
	if pipes > maxRows {
		return 0, 0, fmt.Errorf("registry of %d pipes exceeds limit %d", pipes, uint64(maxRows))
	}
	if events > maxRows {
		return 0, 0, fmt.Errorf("event log of %d rows exceeds limit %d", events, uint64(maxRows))
	}
	return int(pipes), int(events), nil
}

func (r *reader) column(kind, id byte, rows int) (*payload, secHdr, error) {
	h, err := r.sectionHeader()
	if err != nil {
		return nil, h, err
	}
	var wantEnc byte
	if kind == secPipe {
		wantEnc = pipeEncodings[id]
	} else {
		wantEnc = eventEncodings[id]
	}
	if h.kind != kind || h.id != id {
		return nil, h, fmt.Errorf("expected section kind %d id %d, got kind %d id %d", kind, id, h.kind, h.id)
	}
	if h.enc != wantEnc {
		return nil, h, fmt.Errorf("expected encoding %d, got %d", wantEnc, h.enc)
	}
	if h.rows != uint64(rows) {
		return nil, h, fmt.Errorf("row count %d disagrees with meta (%d)", h.rows, rows)
	}
	p, err := r.payload(h)
	return p, h, err
}

func (r *reader) pipeColumn(d *Dataset, id byte, rows int) error {
	p, h, err := r.column(secPipe, id, rows)
	if err != nil {
		return err
	}
	c := &d.Pipes
	switch id {
	case colPipeID:
		c.ID, err = r.strCol(p, h, rows)
	case colPipeClass:
		c.Class, err = dictCol(r, p, h, rows, dataset.ParsePipeClass)
	case colPipeMaterial:
		c.Material, err = dictCol(r, p, h, rows, asIs[dataset.Material])
	case colPipeCoating:
		c.Coating, err = dictCol(r, p, h, rows, asIs[dataset.Coating])
	case colPipeDiameter:
		c.DiameterMM, err = r.f64Col(p, h, rows)
	case colPipeLength:
		c.LengthM, err = r.f64Col(p, h, rows)
	case colPipeLaidYear:
		c.LaidYear, err = r.i32Col(p, h, rows)
	case colPipeSoilCorr:
		c.SoilCorrosivity, err = dictCol(r, p, h, rows, asIs[string])
	case colPipeSoilExp:
		c.SoilExpansivity, err = dictCol(r, p, h, rows, asIs[string])
	case colPipeSoilGeo:
		c.SoilGeology, err = dictCol(r, p, h, rows, asIs[string])
	case colPipeSoilMap:
		c.SoilMap, err = dictCol(r, p, h, rows, asIs[string])
	case colPipeTraffic:
		c.DistToTrafficM, err = r.f64Col(p, h, rows)
	case colPipeX:
		c.X, err = r.f64Col(p, h, rows)
	case colPipeY:
		c.Y, err = r.f64Col(p, h, rows)
	case colPipeSegments:
		c.Segments, err = r.i32Col(p, h, rows)
	}
	if err != nil {
		return err
	}
	return p.finish()
}

func (r *reader) eventColumn(d *Dataset, id byte, rows, numPipes int) error {
	p, h, err := r.column(secEvent, id, rows)
	if err != nil {
		return err
	}
	ev := &d.Events
	switch id {
	case colEventPipe:
		// Validating row references during decode keeps buildEventIndex
		// panic-free on corrupt inputs.
		ev.Pipe, err = r.u32Col(p, h, rows, uint32(numPipes))
	case colEventSegment:
		ev.Segment, err = r.i32Col(p, h, rows)
	case colEventYear:
		ev.Year, err = r.i32Col(p, h, rows)
	case colEventDay:
		ev.Day, err = r.i32Col(p, h, rows)
	case colEventMode:
		ev.Mode, err = dictCol(r, p, h, rows, asIs[dataset.FailureMode])
	}
	if err != nil {
		return err
	}
	return p.finish()
}

func asIs[T ~string](s string) (T, error) { return T(s), nil }

func (r *reader) f64Col(p *payload, h secHdr, rows int) ([]float64, error) {
	if h.payloadLen != uint64(rows)*8 {
		return nil, fmt.Errorf("payload length %d != %d rows * 8", h.payloadLen, rows)
	}
	out := make([]float64, rows)
	buf := r.chunkBuf()
	for i := 0; i < rows; {
		n := min(len(buf)/8, rows-i)
		b := buf[:n*8]
		if err := p.read(b); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			out[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(b[j*8:]))
		}
		i += n
	}
	return out, nil
}

func (r *reader) i32Col(p *payload, h secHdr, rows int) ([]int32, error) {
	if h.payloadLen != uint64(rows)*4 {
		return nil, fmt.Errorf("payload length %d != %d rows * 4", h.payloadLen, rows)
	}
	out := make([]int32, rows)
	buf := r.chunkBuf()
	for i := 0; i < rows; {
		n := min(len(buf)/4, rows-i)
		b := buf[:n*4]
		if err := p.read(b); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			out[i+j] = int32(binary.LittleEndian.Uint32(b[j*4:]))
		}
		i += n
	}
	return out, nil
}

func (r *reader) u32Col(p *payload, h secHdr, rows int, limit uint32) ([]uint32, error) {
	if h.payloadLen != uint64(rows)*4 {
		return nil, fmt.Errorf("payload length %d != %d rows * 4", h.payloadLen, rows)
	}
	out := make([]uint32, rows)
	buf := r.chunkBuf()
	for i := 0; i < rows; {
		n := min(len(buf)/4, rows-i)
		b := buf[:n*4]
		if err := p.read(b); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			v := binary.LittleEndian.Uint32(b[j*4:])
			if v >= limit {
				return nil, fmt.Errorf("row %d: value %d out of range (limit %d)", i+j, v, limit)
			}
			out[i+j] = v
		}
		i += n
	}
	return out, nil
}

// strCol decodes an encStr column: one shared blob string plus rows+1
// offsets; every row is a zero-copy slice of the blob.
func (r *reader) strCol(p *payload, h secHdr, rows int) ([]string, error) {
	var b8 [8]byte
	if err := p.read(b8[:]); err != nil {
		return nil, err
	}
	blobLen := binary.LittleEndian.Uint64(b8[:])
	if blobLen > h.payloadLen || 8+blobLen+uint64(rows+1)*4 != h.payloadLen {
		return nil, fmt.Errorf("payload length %d inconsistent with blob of %d bytes and %d rows", h.payloadLen, blobLen, rows)
	}
	blob := make([]byte, blobLen)
	if err := p.read(blob); err != nil {
		return nil, err
	}
	s := string(blob)
	offs := make([]uint32, rows+1)
	buf := r.chunkBuf()
	for i := 0; i <= rows; {
		n := min(len(buf)/4, rows+1-i)
		b := buf[:n*4]
		if err := p.read(b); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			offs[i+j] = binary.LittleEndian.Uint32(b[j*4:])
		}
		i += n
	}
	if offs[0] != 0 || uint64(offs[rows]) != blobLen {
		return nil, fmt.Errorf("string offsets do not span the blob")
	}
	out := make([]string, rows)
	for i := 0; i < rows; i++ {
		if offs[i] > offs[i+1] || uint64(offs[i+1]) > blobLen {
			return nil, fmt.Errorf("string offsets not monotone at row %d", i)
		}
		out[i] = s[offs[i]:offs[i+1]]
	}
	return out, nil
}

// dictCol decodes an encDict column, converting each dictionary entry once
// with conv; rows share the converted entries' backing.
func dictCol[T any](r *reader, p *payload, h secHdr, rows int, conv func(string) (T, error)) ([]T, error) {
	if h.payloadLen < 2+uint64(rows) {
		return nil, fmt.Errorf("payload length %d too short for %d rows", h.payloadLen, rows)
	}
	var b2 [2]byte
	if err := p.read(b2[:]); err != nil {
		return nil, err
	}
	dictLen := int(binary.LittleEndian.Uint16(b2[:]))
	if dictLen > 256 {
		return nil, fmt.Errorf("dictionary of %d entries exceeds the 256-level cap", dictLen)
	}
	entries := make([]T, dictLen)
	buf := r.chunkBuf()
	for k := 0; k < dictLen; k++ {
		if err := p.read(b2[:]); err != nil {
			return nil, err
		}
		l := int(binary.LittleEndian.Uint16(b2[:]))
		if err := p.read(buf[:l]); err != nil {
			return nil, err
		}
		v, err := conv(string(buf[:l]))
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %w", k, err)
		}
		entries[k] = v
	}
	if p.left != uint64(rows) {
		return nil, fmt.Errorf("dictionary leaves %d bytes for %d row codes", p.left, rows)
	}
	out := make([]T, rows)
	for i := 0; i < rows; {
		n := min(len(buf), rows-i)
		if err := p.read(buf[:n]); err != nil {
			return nil, err
		}
		for j, code := range buf[:n] {
			if int(code) >= dictLen {
				return nil, fmt.Errorf("row %d: dictionary code %d out of range (%d entries)", i+j, code, dictLen)
			}
			out[i+j] = entries[code]
		}
		i += n
	}
	return out, nil
}
