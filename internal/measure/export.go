package measure

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ExportRelTimesCSV writes every benchmark's relative run times on one
// system as long-format CSV (system, suite, benchmark, run, rel_time) —
// the raw material of the paper's Figure 3, consumable by external
// plotting tools.
func (s *SystemData) ExportRelTimesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"system", "suite", "benchmark", "run", "rel_time"}); err != nil {
		return fmt.Errorf("measure: csv: %w", err)
	}
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		for ri, rt := range b.RelTimes() {
			rec := []string{
				s.SystemName,
				b.Workload.Suite,
				b.Workload.Name,
				strconv.Itoa(ri),
				strconv.FormatFloat(rt, 'g', 10, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("measure: csv: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("measure: csv flush: %w", err)
	}
	return nil
}
