package embedding

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
)

// Disk-based partition training (§2: "for general KG embeddings we use
// disk-based training"). Triples are bucketed into binary partition files;
// each epoch streams one bucket at a time, so resident memory is bounded
// by the largest bucket instead of the full edge set. Experiment E12
// verifies quality parity with in-memory training at bounded memory.

const partitionMagic = uint32(0x53414741) // "SAGA"

// WritePartitions buckets the dataset's triples uniformly at random into
// nParts binary files under dir (created if needed) and returns their
// paths. The assignment is deterministic under seed.
func WritePartitions(d *Dataset, dir string, nParts int, seed int64) ([]string, error) {
	if nParts <= 0 {
		return nil, fmt.Errorf("embedding: nParts must be positive, got %d", nParts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("embedding: create partition dir: %w", err)
	}
	files := make([]*os.File, nParts)
	writers := make([]*bufio.Writer, nParts)
	paths := make([]string, nParts)
	for i := range files {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part-%04d.bin", i))
		f, err := os.Create(paths[i])
		if err != nil {
			return nil, err
		}
		files[i] = f
		writers[i] = bufio.NewWriter(f)
		if err := binary.Write(writers[i], binary.LittleEndian, partitionMagic); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var rec [12]byte
	for _, t := range d.Triples {
		p := rng.Intn(nParts)
		binary.LittleEndian.PutUint32(rec[0:4], uint32(t[0]))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(t[1]))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(t[2]))
		if _, err := writers[p].Write(rec[:]); err != nil {
			return nil, err
		}
	}
	for i := range files {
		if err := writers[i].Flush(); err != nil {
			return nil, err
		}
		if err := files[i].Close(); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// ReadPartition loads one partition file's triples, each checked against
// the vocabulary sizes it will index: a record outside them is a corrupt
// file, reported here instead of as a panic inside a model update.
func ReadPartition(path string, numEnts, numRels int) ([][3]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("embedding: partition %s: %w", path, err)
	}
	if magic != partitionMagic {
		return nil, fmt.Errorf("embedding: partition %s: bad magic %x", path, magic)
	}
	var out [][3]int32
	var rec [12]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("embedding: partition %s truncated: %w", path, err)
		}
		h, rel, t := binary.LittleEndian.Uint32(rec[0:4]), binary.LittleEndian.Uint32(rec[4:8]), binary.LittleEndian.Uint32(rec[8:12])
		if int64(h) >= int64(numEnts) || int64(rel) >= int64(numRels) || int64(t) >= int64(numEnts) {
			return nil, fmt.Errorf("embedding: partition %s: record %d (%d, %d, %d) outside %d entities, %d relations",
				path, len(out), h, rel, t, numEnts, numRels)
		}
		out = append(out, [3]int32{int32(h), int32(rel), int32(t)})
	}
}

// DiskTrainStats reports resource behaviour of a disk-based run.
type DiskTrainStats struct {
	// MaxResidentTriples is the largest number of triples held in memory
	// at once (the largest single bucket).
	MaxResidentTriples int
	// BucketsStreamed counts bucket loads across all epochs.
	BucketsStreamed int
}

// TrainFromDisk trains a model by streaming partition files bucket by
// bucket for each epoch. Only one bucket's triples are resident at a time.
// The dataset d supplies the vocabulary and the known-triple filter but
// its in-memory Triples slice is not consulted.
func TrainFromDisk(d *Dataset, paths []string, cfg TrainConfig) (Model, DiskTrainStats, error) {
	cfg.setDefaults()
	var stats DiskTrainStats
	if len(paths) == 0 {
		return nil, stats, fmt.Errorf("embedding: no partition files")
	}
	model, err := NewModel(cfg.Model, d.NumEntities(), d.NumRelations(), cfg.Dim, cfg.Seed)
	if err != nil {
		return nil, stats, err
	}
	stats, err = trainFromDisk(model, d, paths, cfg)
	if err != nil {
		return nil, stats, err
	}
	return model, stats, nil
}

// trainFromDisk is TrainFromDisk's loop on a given model; a test hands it
// one that records the steps it is given.
func trainFromDisk(model Model, d *Dataset, paths []string, cfg TrainConfig) (DiskTrainStats, error) {
	var stats DiskTrainStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for pi, path := range paths {
			triples, err := ReadPartition(path, d.NumEntities(), d.NumRelations())
			if err != nil {
				return stats, err
			}
			stats.BucketsStreamed++
			if len(triples) > stats.MaxResidentTriples {
				stats.MaxResidentTriples = len(triples)
			}
			if len(triples) == 0 {
				continue
			}
			bucket := d.sharing(triples)
			part := make([]int32, len(triples))
			for i := range part {
				part[i] = int32(i)
			}
			trainBucket(model, bucket, part, cfg, bucketSeed(cfg.Seed, epoch, pi), nil)
		}
	}
	return stats, nil
}
