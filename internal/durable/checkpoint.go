package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"sihtm/internal/memsim"
	"sihtm/internal/sgl"
)

// Checkpoint file layout (little-endian):
//
//	offset  size  field
//	0       4     magic   = ckptMagic ("SCKP")
//	4       4     version = 1
//	8       8     watermark — replay log records with seq > watermark
//	16      8     allocated — heap bump pointer, in words
//	24      8     words     — heap capacity, in words
//	32      8·W   payload   — the heap image, word by word
//	32+8·W  4     crc       — CRC-32C over bytes [0, 32+8·W)
//
// The file is written to a temporary sibling and renamed into place, so
// the named checkpoint is always a complete image: a crash mid-write
// leaves the previous checkpoint (or none) behind, never a torn one.
const (
	ckptMagic   = uint32(0x53434B50) // "SCKP"
	ckptVersion = uint32(1)
	ckptHeader  = 32
)

// castagnoli mirrors the WAL's CRC-32C polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteCheckpoint takes a fuzzy snapshot of the heap and writes it to
// path, returning the watermark it recorded. It runs concurrently with
// commits; the commit path is blocked only for the two sequence-counter
// reads bracketing the scan.
//
// Why the fuzzy image plus the recorded watermark recover an exact
// state:
//
//  1. W is read with the barrier held exclusively: every sequence
//     number ≤ W was assigned by a capture whose publication has also
//     completed (captures and publications share one RLock section), so
//     the scan that follows sees all of commits 1..W.
//  2. The scan may additionally see fragments of commits that publish
//     while it runs. Any such commit appended its record (PreCommit)
//     before storing a single word, so by the time the scan finishes,
//     every write the image may contain is already in the log's append
//     buffer.
//  3. The log is forced (Sync) after the scan and before the checkpoint
//     is renamed into place, so all those records are durable when the
//     checkpoint becomes the recovery base — the WAL rule.
//
// Recovery restores the image and replays the log from W+1. Records in
// (W, E] whose effects the image already holds are re-applied — physical
// redo is idempotent — and records the image caught only partially are
// completed. The recovered state is exactly commits 1..K for K = end of
// the log's valid prefix (≥ E).
//
// The one word the log cannot repair is an attached system's global
// lock, so the image writes it as free (see lockedSystem).
func (s *Store) WriteCheckpoint(path string) (watermark uint64, err error) {
	s.barrier.Lock()
	watermark = s.log.LastSeq()
	s.barrier.Unlock()

	heap := s.heap
	words := heap.Size()
	allocated := heap.Allocated()

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	crc := uint32(0)
	w := bufio.NewWriterSize(f, 1<<16)
	emit := func(b []byte) error {
		crc = crc32.Update(crc, castagnoli, b)
		_, werr := w.Write(b)
		return werr
	}
	var hdr [ckptHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], watermark)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(allocated))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(words))
	if err = emit(hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	var chunk [512]byte
	for a := 0; a < words; {
		first, n := a, 0
		for ; n < len(chunk)/8 && a < words; n++ {
			binary.LittleEndian.PutUint64(chunk[n*8:], heap.Load(memsim.Addr(a)))
			a++
		}
		for _, l := range s.locks {
			if i := int(l) - first; i >= 0 && i < n {
				binary.LittleEndian.PutUint64(chunk[i*8:], sgl.Unlocked)
			}
		}
		if err = emit(chunk[:n*8]); err != nil {
			return 0, fmt.Errorf("durable: checkpoint: %w", err)
		}
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	if _, err = w.Write(tr[:]); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err = w.Flush(); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}

	// The WAL rule: the log must cover every write the image may hold
	// before the checkpoint becomes the named recovery base.
	if err = s.log.Sync(); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	return watermark, nil
}

// ReadCheckpoint restores a checkpoint image into heap and returns its
// watermark. The heap must have the same word capacity the image was
// taken from.
func ReadCheckpoint(path string, heap *memsim.Heap) (watermark uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if len(data) < ckptHeader+4 {
		return 0, fmt.Errorf("durable: checkpoint %s: truncated (%d bytes)", path, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != ckptMagic {
		return 0, fmt.Errorf("durable: checkpoint %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ckptVersion {
		return 0, fmt.Errorf("durable: checkpoint %s: unsupported version %d", path, v)
	}
	watermark = binary.LittleEndian.Uint64(data[8:])
	allocated := binary.LittleEndian.Uint64(data[16:])
	words := binary.LittleEndian.Uint64(data[24:])
	if int(words) != heap.Size() {
		return 0, fmt.Errorf("durable: checkpoint %s: image has %d words, heap has %d",
			path, words, heap.Size())
	}
	body := ckptHeader + int(words)*8
	if len(data) != body+4 {
		return 0, fmt.Errorf("durable: checkpoint %s: %d bytes, want %d", path, len(data), body+4)
	}
	if got, want := crc32.Checksum(data[:body], castagnoli), binary.LittleEndian.Uint32(data[body:]); got != want {
		return 0, fmt.Errorf("durable: checkpoint %s: CRC mismatch", path)
	}
	if allocated < 1 || allocated > words {
		return 0, fmt.Errorf("durable: checkpoint %s: bad allocation watermark %d", path, allocated)
	}
	for a := 0; a < int(words); a++ {
		heap.Store(memsim.Addr(a), binary.LittleEndian.Uint64(data[ckptHeader+a*8:]))
	}
	heap.RestoreAllocated(int(allocated))
	return watermark, nil
}
