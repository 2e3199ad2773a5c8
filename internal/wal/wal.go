// Package wal is a durable write-ahead event log: the crash-safety
// substrate of the streaming-ingest path. Callers append opaque payloads
// and receive a log offset; WaitDurable blocks until that offset is
// durable under the configured policy, so under SyncAlways an HTTP
// acknowledgment is only ever sent for bytes that survive power loss.
//
// On-disk layout: rotating segment files wal-NNNNNNNN.seg, each
//
//	"PWAL" | u16 version=1 | u16 reserved
//	frame* — u32 payload-length | u32 CRC-32 (IEEE) of payload | payload
//
// (all integers little-endian, mirroring the colfmt section discipline:
// every byte of payload is covered by a checksum, and every declared
// length is sanity-checked before it is trusted).
//
// Durability model:
//
//   - SyncAlways: WaitDurable fsyncs before returning. Concurrent
//     waiters group-commit — the first one in flushes and fsyncs
//     everything appended so far, and every waiter at or below the new
//     watermark returns without issuing its own fsync. Only waiters
//     that do not serialize among themselves share an fsync.
//   - SyncInterval: a background ticker flushes and fsyncs every
//     Interval; WaitDurable returns immediately (acks may be lost on
//     crash, bounded by the interval).
//   - SyncNever: WaitDurable returns immediately and nothing is flushed
//     on its account. Frames sit in the log's user-space buffer
//     (flushThreshold, 256 KiB) until it fills or the log rotates,
//     syncs or closes; only then does the OS hold them, and the OS
//     decides when they reach disk. So a process crash, not only power
//     loss, can drop acknowledged records.
//
// Recovery (Open) replays every intact record in log order, truncates a
// torn tail at the first bad frame of the final segment, and quarantines
// a corrupt interior segment (renaming it *.corrupt) after delivering its
// intact prefix — a record is never dropped because a *later* byte rotted.
// Idempotence under replay is the caller's job (event-ID dedup): a crash
// between fsync and acknowledgment means the record is on disk but the
// client will retry it.
//
// The package carries a deterministic crash-point harness (see
// crash.go): labeled points in append/rotate/sync either abort the
// process (env-triggered, for cross-process SIGKILL tests) or
// simulate process death in-process with a controllable amount of the
// user-space buffer flushed, so chaos tests can manufacture torn tails
// on demand.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// Magic is the 4-byte segment-file signature.
	Magic = "PWAL"
	// Version is the current segment format version.
	Version = 1

	headerSize      = 8
	frameHeaderSize = 8

	// MaxRecordBytes bounds a single payload; a frame declaring more is
	// corrupt by definition, so a flipped length byte cannot balloon a
	// replay allocation.
	MaxRecordBytes = 4 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 8 << 20

	// DefaultInterval is the fsync period for SyncInterval when Options
	// leaves Interval zero.
	DefaultInterval = 100 * time.Millisecond

	segPrefix        = "wal-"
	segSuffix        = ".seg"
	quarantineSuffix = ".corrupt"

	// flushThreshold bounds the user-space buffer; a larger buffer only
	// widens the window of unflushed (crash-lost, unacked) bytes.
	flushThreshold = 256 << 10
)

// SyncPolicy selects when appended bytes are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before WaitDurable returns (group-committed).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker.
	SyncInterval
	// SyncNever never fsyncs explicitly (except at rotation/close).
	SyncNever
)

// ParseSyncPolicy converts the -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// String renders the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures Open.
type Options struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Sync is the durability policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncInterval fsync period (default DefaultInterval).
	Interval time.Duration
	// MetricsName prefixes this log's obs series (default "wal").
	MetricsName string
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrCrashed is returned after a simulated crash point fired; the log
// refuses all further work, exactly as a dead process would.
var ErrCrashed = errors.New("wal: crashed (simulated)")

type metrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	fsyncSec    *obs.Histogram
	replayed    *obs.Counter
	truncated   *obs.Counter
	quarantined *obs.Counter
	segments    *obs.Gauge
	sizeBytes   *obs.Gauge
	backlog     *obs.Gauge
}

func newMetrics(prefix string) metrics {
	reg := obs.Default()
	return metrics{
		appends:     reg.Counter(prefix + ".appends"),
		appendBytes: reg.Counter(prefix + ".append_bytes"),
		fsyncs:      reg.Counter(prefix + ".fsyncs"),
		fsyncSec:    reg.Histogram(prefix+".fsync_seconds", []float64{.0001, .0005, .001, .005, .01, .05, .1, .5}),
		replayed:    reg.Counter(prefix + ".replayed"),
		truncated:   reg.Counter(prefix + ".truncated_tails"),
		quarantined: reg.Counter(prefix + ".quarantined_segments"),
		segments:    reg.Gauge(prefix + ".segments"),
		sizeBytes:   reg.Gauge(prefix + ".size_bytes"),
		backlog:     reg.Gauge(prefix + ".backlog_bytes"),
	}
}

// WAL is one durable log. All methods are safe for concurrent use.
type WAL struct {
	dir  string
	opts Options
	m    metrics

	// crashHook, when set (before traffic; see SetCrashHook), simulates
	// process death at labeled points.
	crashHook func(label string) Action

	mu       sync.Mutex // guards the fields below
	f        *os.File   // active segment
	buf      []byte     // user-space buffer: lost on crash, like any process buffer
	seq      int        // active segment index
	segSize  int64      // active segment size including buffered bytes
	written  int64      // total log bytes ever appended (headers + frames)
	segCount int        // live (non-quarantined) segment files
	closed   bool

	// syncMu serializes fsyncs; synced is the durable watermark in
	// written-space. A WaitDurable caller first checks the watermark, so
	// one fsync acknowledges every writer it covered (group commit).
	syncMu sync.Mutex
	synced atomic.Int64

	dead atomic.Bool

	tickStop chan struct{}
	tickDone chan struct{}
}

// Open creates dir if needed, replays every intact record (in log
// order) through replay, repairs corruption (torn-tail truncation,
// interior-segment quarantine), and returns the log opened for appends.
// A replay callback error aborts Open.
func Open(dir string, opts Options, replay func(payload []byte) error) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.MetricsName == "" {
		opts.MetricsName = "wal"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, m: newMetrics(opts.MetricsName)}

	segs, err := w.listSegments()
	if err != nil {
		return nil, err
	}
	for i, seq := range segs {
		if err := w.recoverSegment(seq, i == len(segs)-1, replay); err != nil {
			return nil, err
		}
	}
	if w.f == nil {
		// No segments survived (fresh dir, or a quarantined tail): start
		// a new one after the highest index ever used, so a quarantined
		// file's name is never reused.
		next := 1
		if len(segs) > 0 {
			next = segs[len(segs)-1] + 1
		}
		if err := w.openSegmentLocked(next); err != nil {
			return nil, err
		}
	}
	// Everything on disk at open is as durable as it will ever get.
	w.synced.Store(w.written)
	w.m.segments.Set(float64(w.segCount))
	w.m.sizeBytes.Set(float64(w.written))
	w.m.backlog.Set(0)

	if opts.Sync == SyncInterval {
		w.tickStop = make(chan struct{})
		w.tickDone = make(chan struct{})
		go w.tickLoop()
	}
	return w, nil
}

// listSegments returns the live segment indices in ascending order.
func (w *WAL) listSegments() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (w *WAL) segPath(seq int) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// recoverSegment replays one segment. Corruption in the tail segment
// truncates the file at the first bad frame and keeps it as the active
// segment; corruption in an interior segment (or an unreadable header
// anywhere) quarantines the file after delivering its intact prefix.
func (w *WAL) recoverSegment(seq int, isTail bool, replay func([]byte) error) error {
	path := w.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}

	headerOK := len(data) >= headerSize &&
		string(data[:4]) == Magic &&
		binary.LittleEndian.Uint16(data[4:6]) == Version
	good := int64(headerSize)
	if !headerOK {
		// A header torn by a crash during segment creation (short file)
		// is recoverable by rewriting it; anything else is foreign bytes.
		if isTail && len(data) < headerSize {
			w.m.truncated.Inc()
			return w.adoptTail(seq, 0)
		}
		return w.quarantineSegment(path, fmt.Errorf("bad segment header"))
	}

	for good < int64(len(data)) {
		if good+frameHeaderSize > int64(len(data)) {
			break // torn frame header
		}
		plen := int64(binary.LittleEndian.Uint32(data[good : good+4]))
		if plen == 0 || plen > MaxRecordBytes || good+frameHeaderSize+plen > int64(len(data)) {
			break // insane length or torn payload
		}
		payload := data[good+frameHeaderSize : good+frameHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[good+4:good+8]) {
			break // bit rot
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				return fmt.Errorf("wal: replay segment %d: %w", seq, err)
			}
		}
		w.m.replayed.Inc()
		good += frameHeaderSize + plen
	}

	if good < int64(len(data)) {
		if !isTail {
			return w.quarantineSegment(path, fmt.Errorf("corrupt frame at offset %d", good))
		}
		w.m.truncated.Inc()
	}
	if !isTail {
		w.written += good
		w.segCount++
		return nil
	}
	return w.adoptTail(seq, good)
}

// adoptTail (re)opens the final segment for appending, truncated to its
// last intact frame boundary.
func (w *WAL) adoptTail(seq int, keep int64) error {
	path := w.segPath(seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if keep < headerSize {
		var hdr [headerSize]byte
		copy(hdr[:4], Magic)
		binary.LittleEndian.PutUint16(hdr[4:6], Version)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewrite segment header: %w", err)
		}
		keep = headerSize
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.seq = seq
	w.segSize = keep
	w.written += keep
	w.segCount++
	return nil
}

// quarantineSegment sets a corrupt segment aside for the operator and
// makes the rename durable, so the next boot never re-reads rotten bytes.
func (w *WAL) quarantineSegment(path string, cause error) error {
	w.m.quarantined.Inc()
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		return fmt.Errorf("wal: quarantine %s (cause: %v): %w", filepath.Base(path), cause, err)
	}
	return syncDir(w.dir)
}

// openSegmentLocked creates segment seq and makes its directory entry
// durable. Callers hold mu (or have exclusive access during Open).
func (w *WAL) openSegmentLocked(seq int) error {
	f, err := os.OpenFile(w.segPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.seq = seq
	w.segSize = headerSize
	w.written += headerSize
	w.segCount++
	w.m.segments.Set(float64(w.segCount))
	return nil
}

// syncDir fsyncs a directory so renames and creates within it survive
// power loss — fsyncing the file alone pins its bytes, not its name.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

func (w *WAL) usableLocked() error {
	if w.dead.Load() {
		return ErrCrashed
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

// Append frames payload into the log and returns the offset to pass to
// WaitDurable. It buffers in user space (bounded by flushThreshold) and
// does not itself fsync; an append is not durable until WaitDurable
// returns for an offset at or past it.
func (w *WAL) Append(payload []byte) (int64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return 0, err
	}
	if err := w.pointLocked(PointAppendEnter); err != nil {
		return 0, err
	}
	n := int64(frameHeaderSize + len(payload))
	if w.segSize+n > w.opts.SegmentBytes && w.segSize > headerSize {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.segSize += n
	w.written += n
	end := w.written
	w.m.appends.Inc()
	w.m.appendBytes.Add(n)
	w.m.sizeBytes.Set(float64(w.written))
	w.m.backlog.Set(float64(end - w.synced.Load()))
	if len(w.buf) >= flushThreshold {
		if err := w.flushLocked(); err != nil {
			return 0, err
		}
	}
	if err := w.pointLocked(PointAppendFramed); err != nil {
		return 0, err
	}
	return end, nil
}

// flushLocked drains the user-space buffer to the active segment file.
func (w *WAL) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// rotateLocked seals the active segment (flush + fsync, so a sealed
// segment is always fully durable) and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.pointLocked(PointRotate); err != nil {
		return err
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	w.m.fsyncs.Inc()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Every byte written so far is now durable, whatever the policy.
	w.storeSyncedMax(w.written)
	return w.openSegmentLocked(w.seq + 1)
}

func (w *WAL) storeSyncedMax(v int64) {
	for {
		cur := w.synced.Load()
		if v <= cur || w.synced.CompareAndSwap(cur, v) {
			return
		}
	}
}

// WaitDurable blocks until offset end (from Append) is durable under the
// configured policy. Under SyncAlways it group-commits: the caller that
// wins the sync lock flushes and fsyncs everything appended so far, and
// callers whose offset that covered return without another fsync.
func (w *WAL) WaitDurable(end int64) error {
	if w.dead.Load() {
		return ErrCrashed
	}
	if w.opts.Sync != SyncAlways {
		return nil
	}
	if w.synced.Load() >= end {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= end {
		return nil
	}
	return w.syncNow()
}

// Sync forces a flush + fsync of everything appended so far (any policy).
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncNow()
}

// syncNow flushes and fsyncs; callers hold syncMu.
func (w *WAL) syncNow() error {
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if err := w.flushLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	target := w.written
	f := w.f
	w.mu.Unlock()

	start := time.Now()
	if err := f.Sync(); err != nil {
		// A concurrent Append can rotate between the unlock above and
		// this Sync: rotation flushes, fsyncs and closes the captured
		// file, so Sync on it fails ("file already closed") even though
		// every byte up to target just became durable. The watermark
		// rotation stores tells the two apart — only propagate the error
		// if target is genuinely not durable.
		if w.synced.Load() >= target {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	w.m.fsyncs.Inc()
	w.m.fsyncSec.Observe(time.Since(start).Seconds())
	if err := w.point(PointSynced); err != nil {
		// Crash between fsync and acknowledgment: the bytes are durable
		// but no writer learns it — the double-apply hazard dedup covers.
		return err
	}
	w.storeSyncedMax(target)
	w.m.backlog.Set(float64(w.writtenNow() - w.synced.Load()))
	return nil
}

func (w *WAL) writtenNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// BacklogBytes reports appended-but-not-yet-durable bytes — the
// backpressure signal for ingest admission control.
func (w *WAL) BacklogBytes() int64 {
	return w.writtenNow() - w.synced.Load()
}

// SizeBytes reports total live log bytes (headers included).
func (w *WAL) SizeBytes() int64 { return w.writtenNow() }

// Segments reports the number of live segment files.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segCount
}

func (w *WAL) tickLoop() {
	defer close(w.tickDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.tickStop:
			return
		case <-t.C:
			if err := w.Sync(); err != nil {
				if errors.Is(err, ErrClosed) || errors.Is(err, ErrCrashed) {
					return
				}
			}
		}
	}
}

// Close flushes, fsyncs and closes the log. Safe to call twice.
func (w *WAL) Close() error {
	if w.tickStop != nil {
		select {
		case <-w.tickStop:
		default:
			close(w.tickStop)
		}
		<-w.tickDone
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.dead.Load() {
		return nil // a crashed log already dropped its buffer and file
	}
	if err := w.flushLocked(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.storeSyncedMax(w.written)
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
