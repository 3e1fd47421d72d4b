package tenant

import (
	"fmt"
	"strconv"

	paretomon "repro"
)

// bootMetaKey names the coordination record (Monitor.PutMeta) that holds
// how many dataset rows BootIngest has ingested into a monitor.
const bootMetaKey = "boot-rows"

// BootIngest ingests the dataset rows a monitor does not hold yet, row i
// (0-based) under the stable name o<i+1>, as one AddBatch, and records
// how many rows that makes beside the WAL. It returns how many rows it
// ingested. The record, not the names, says where a restart resumes:
// rows leave the registry when they are deleted or expire from the
// window, so probing names from the first row would ingest them again.
//
// A crash between the batch and the record can leave rows past the
// record applied (a prefix of that batch). The newest of them the monitor
// holds marks the end of it, so rows past the record are probed from the
// last backwards: under a window the batch's oldest rows may have expired
// already, but the newest applied one has not, since nothing else writes
// before the record is made. A monitor with no record (written before it
// existed) is probed the same way, from row 0; if it holds none of the
// rows — under a window they may all have expired since — it resumes
// after its first ObjectCount rows, since such a build finished boot
// before it served, so the boot rows took the first ids.
func BootIngest(mon *paretomon.Monitor, rows [][]string) (int, error) {
	done, recorded, err := bootRows(mon)
	if err != nil {
		return 0, err
	}
	probed := false
	for i := len(rows); i > done; i-- {
		if mon.HasObject(bootName(i - 1)) {
			done, probed = i, true
			break
		}
	}
	if !recorded && !probed {
		done = min(mon.ObjectCount(), len(rows))
	}
	start := min(done, len(rows))
	if start < len(rows) {
		batch := make([]paretomon.Object, len(rows)-start)
		for i, row := range rows[start:] {
			batch[i] = paretomon.Object{Name: bootName(start + i), Values: row}
		}
		if _, err := mon.AddBatch(batch); err != nil {
			return 0, err
		}
		done = len(rows)
	}
	if err := mon.PutMeta(bootMetaKey, []byte(strconv.Itoa(done))); err != nil {
		return 0, fmt.Errorf("recording boot progress: %w", err)
	}
	return len(rows) - start, nil
}

// bootRows reads the boot progress record and whether there is one.
func bootRows(mon *paretomon.Monitor) (int, bool, error) {
	v, ok, err := mon.GetMeta(bootMetaKey)
	if err != nil || !ok {
		return 0, false, err
	}
	n, err := strconv.Atoi(string(v))
	if err != nil || n < 0 {
		return 0, true, fmt.Errorf("boot progress record %q is not a row count", v)
	}
	return n, true, nil
}

// bootName is dataset row i's object name.
func bootName(i int) string { return fmt.Sprintf("o%d", i+1) }
