package bench

import (
	"encoding/json"
	"io"

	"repro/internal/storage"
)

// JSON DTOs for machine-readable benchmark output (`tixbench -json`).
// Field names are stable: future PRs diff these files to track the perf
// trajectory across changes, so renames are breaking.

// TableJSON is the JSON shape of one table.
type TableJSON struct {
	ID      string    `json:"id"`
	Caption string    `json:"caption"`
	Columns []string  `json:"columns"`
	Rows    []RowJSON `json:"rows"`
}

// RowJSON is one workload row.
type RowJSON struct {
	Label string     `json:"label"`
	Extra string     `json:"extra,omitempty"`
	Cells []CellJSON `json:"cells"`
}

// CellJSON is one method measurement; Error is set (and the measurement
// fields zero) when the method failed. AllocsPerOp and BytesPerOp are
// emitted only by workloads that measure them (the hot-path rig).
type CellJSON struct {
	Method      string    `json:"method"`
	Seconds     float64   `json:"seconds"`
	Results     int       `json:"results"`
	Stats       StatsJSON `json:"stats"`
	AllocsPerOp float64   `json:"allocsPerOp,omitempty"`
	BytesPerOp  float64   `json:"bytesPerOp,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// StatsJSON mirrors storage.AccessStats.
type StatsJSON struct {
	NodeReads int64 `json:"nodeReads"`
	PageReads int64 `json:"pageReads"`
	TextReads int64 `json:"textReads"`
	NavSteps  int64 `json:"navSteps"`
}

func statsJSON(s storage.AccessStats) StatsJSON {
	return StatsJSON{NodeReads: s.NodeReads, PageReads: s.PageReads, TextReads: s.TextReads, NavSteps: s.NavSteps}
}

// JSON converts the table to its JSON shape.
func (t *Table) JSON() TableJSON {
	out := TableJSON{ID: t.ID, Caption: t.Caption}
	for _, m := range t.Columns {
		out.Columns = append(out.Columns, string(m))
	}
	for _, r := range t.Rows {
		row := RowJSON{Label: r.Label, Extra: r.Extra}
		for _, c := range r.Cells {
			cell := CellJSON{Method: string(c.Method)}
			if c.Err != nil {
				cell.Error = c.Err.Error()
			} else {
				cell.Seconds = c.M.Seconds
				cell.Results = c.M.Results
				cell.AllocsPerOp = c.M.AllocsPerOp
				cell.BytesPerOp = c.M.BytesPerOp
				cell.Stats = statsJSON(c.M.Stats)
			}
			row.Cells = append(row.Cells, cell)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// WriteJSON writes the table as one indented JSON document.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.JSON())
}

// WriteAllJSON writes several tables as one JSON array.
func WriteAllJSON(w io.Writer, tables []*Table) error {
	out := make([]TableJSON, len(tables))
	for i, t := range tables {
		out[i] = t.JSON()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
