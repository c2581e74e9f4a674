package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Series is a time series of registry snapshots: one row per capture,
// one column per metric sample. The column set is frozen at the first
// capture — metrics registered afterwards are not added retroactively,
// so every row has the same width. (The Meter registers all its metrics
// up front for exactly this reason.) The first capture resolves the
// columns to handles on the metrics; later captures only read them.
type Series struct {
	reg  *Registry
	cols []column
	// Columns are the metric sample names, in snapshot (sorted) order.
	Columns []string
	// Rows are the captures, in capture order.
	Rows []SeriesRow
}

// SeriesRow is one captured snapshot.
type SeriesRow struct {
	// At is the capture timestamp in VM cycles.
	At uint64 `json:"at"`
	// Values align with the series' Columns.
	Values []int64 `json:"values"`
}

// NewSeries returns an empty series reading from reg.
func NewSeries(reg *Registry) *Series { return &Series{reg: reg} }

// Capture snapshots the registry as a row timestamped at the given
// cycle count.
func (s *Series) Capture(at uint64) {
	if s.Columns == nil {
		s.cols = s.reg.columns()
		s.Columns = make([]string, len(s.cols))
		for i, c := range s.cols {
			s.Columns[i] = c.name
		}
	}
	row := SeriesRow{At: at, Values: make([]int64, len(s.cols))}
	for i, c := range s.cols {
		row.Values[i] = c.value()
	}
	s.Rows = append(s.Rows, row)
}

// WriteCSV writes the series with a "cycle" column followed by one
// column per metric sample.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"cycle"}, s.Columns...)); err != nil {
		return err
	}
	rec := make([]string, 1+len(s.Columns))
	for _, row := range s.Rows {
		rec[0] = strconv.FormatUint(row.At, 10)
		for i, v := range row.Values {
			rec[1+i] = strconv.FormatInt(v, 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the series as {"columns": [...], "rows": [...]}.
func (s *Series) WriteJSON(w io.Writer) error {
	cols := s.Columns
	if cols == nil {
		cols = []string{}
	}
	rows := s.Rows
	if rows == nil {
		rows = []SeriesRow{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Columns []string    `json:"columns"`
		Rows    []SeriesRow `json:"rows"`
	}{cols, rows})
}
