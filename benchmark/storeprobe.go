package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"krum/distsgd"
	"krum/scenario/store"
)

// probeStore times the segmented store on the directory the measured
// coordinator wrote, once its processes are gone: open-and-replay (what
// a restart pays), lookups that hit and that miss, saves of fresh
// results, a seal and a compaction. It ends the service.
func (o *overlap) probeStore(cells []servedCell, out map[string]float64) error {
	o.svc.stop()
	dir := filepath.Join(o.svc.dir, "cells")
	diskBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}

	t := time.Now()
	st, err := store.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("re-opening %s: %w", dir, err)
	}
	defer st.Close()
	out["store.open_replay_ms"] = ms(time.Since(t))
	entries := st.Stats().Entries
	if entries == 0 {
		return fmt.Errorf("re-opened store at %s is empty", dir)
	}
	out["store.disk_bytes_per_cell"] = float64(diskBytes) / float64(entries)

	probeStoreKey(cells, out)
	t = time.Now()
	for _, c := range cells {
		if _, ok := st.Lookup(c.spec); !ok {
			return fmt.Errorf("served cell %s is not in the store", c.spec.Label())
		}
	}
	out["store.lookup_hit_us"] = us(time.Since(t)) / float64(len(cells))

	// Fresh cells: the served specs moved to seeds no client used.
	fresh := make([]servedCell, len(cells))
	for i, c := range cells {
		c.spec.Seed += warmupOffset
		fresh[i] = c
	}
	t = time.Now()
	for _, c := range fresh {
		if _, ok := st.Lookup(c.spec); ok {
			return fmt.Errorf("unseen cell %s hit the store", c.spec.Label())
		}
	}
	out["store.lookup_miss_us"] = us(time.Since(t)) / float64(len(fresh))

	results := make([]*distsgd.Result, len(fresh))
	for i, c := range fresh {
		results[i] = new(distsgd.Result)
		if err := json.Unmarshal(c.result, results[i]); err != nil {
			return fmt.Errorf("decoding a served result: %w", err)
		}
	}
	t = time.Now()
	for i, c := range fresh {
		if err := st.Save(c.spec, results[i]); err != nil {
			return err
		}
	}
	out["store.save_us"] = us(time.Since(t)) / float64(len(fresh))

	t = time.Now()
	if err := st.Seal(); err != nil {
		return err
	}
	out["store.seal_ms"] = ms(time.Since(t))
	t = time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	out["store.compact_ms"] = ms(time.Since(t))
	return nil
}

func dirBytes(dir string) (total int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
