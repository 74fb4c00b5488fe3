package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ccp/internal/partition"
)

// Checkpoint files are named ckpt-<seq>.ckpt (<seq> zero-padded hex) and
// written atomically: serialize to ckpt-<seq>.tmp, fsync, rename, fsync the
// directory. A crash mid-checkpoint leaves at worst a stale .tmp (deleted on
// the next open) — never a half-visible checkpoint.
//
// Format: magic, the covered sequence number, the CCPP1 partition payload,
// and a trailing CRC32 over everything after the magic. The CRC makes a
// truncated or bit-rotted checkpoint detectably invalid, so recovery falls
// back to the previous one plus a longer WAL tail.
const (
	ckptMagic  = "CCPC1\n"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	ckptTmp    = ".tmp"
)

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix))
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// writeCheckpoint durably writes the partition image p, covering every
// record up to and including seq. It returns the file's size.
func writeCheckpoint(dir string, seq uint64, p *partition.Partition) (int64, error) {
	var body bytes.Buffer
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	body.Write(seqb[:])
	if err := p.WriteBinary(&body); err != nil {
		return 0, fmt.Errorf("store: serializing checkpoint: %w", err)
	}
	crc := crc32.ChecksumIEEE(body.Bytes())
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)

	tmp := ckptPath(dir, seq) + ckptTmp
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.WriteString(ckptMagic)
	if err == nil {
		_, err = f.Write(body.Bytes())
	}
	if err == nil {
		_, err = f.Write(crcb[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, ckptPath(dir, seq)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return int64(len(ckptMagic) + body.Len() + 4), nil
}

// checkCheckpoint reads one checkpoint file and validates its magic and
// trailing CRC, returning the CRC-covered body: the covered sequence number
// followed by the CCPP1 payload. It proves the bytes recovery would read are
// intact without decoding them. A missing file is the bare os error.
func checkCheckpoint(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+12 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("store: checkpoint %s: not a checkpoint", path)
	}
	body := data[len(ckptMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("store: checkpoint %s: checksum mismatch", path)
	}
	return body, nil
}

// loadCheckpoint validates and decodes one checkpoint file, returning the
// covered sequence number, the partition image and the file's size. The
// partition decoder tolerates forms the writer never emits (trailing bytes,
// repeated or unsorted set ids), so an image must also re-encode to itself:
// anything else under a valid CRC was not written by writeCheckpoint.
func loadCheckpoint(path string) (uint64, *partition.Partition, int64, error) {
	body, err := checkCheckpoint(path)
	if err != nil {
		return 0, nil, 0, err
	}
	image := body[8:]
	p, err := partition.ReadPartition(bytes.NewReader(image))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("store: checkpoint %s: %w", path, err)
	}
	var again bytes.Buffer
	if err := p.WriteBinary(&again); err != nil || !bytes.Equal(again.Bytes(), image) {
		return 0, nil, 0, fmt.Errorf("store: checkpoint %s: image is not in the form the writer produces", path)
	}
	return binary.LittleEndian.Uint64(body[:8]), p, int64(len(ckptMagic) + len(body) + 4), nil
}

// ckptFile is one checkpoint found on disk.
type ckptFile struct {
	seq  uint64
	path string
}

// listCheckpoints returns the on-disk checkpoints, newest first, and deletes
// stale .tmp leftovers of interrupted checkpoint builds.
func listCheckpoints(dir string) ([]ckptFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ckptFile
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ckptTmp) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseCkptName(name); ok {
			out = append(out, ckptFile{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out, nil
}
