package mobility

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"armnet/internal/topology"
)

// Trace CSV format: header "time,portable,from,to", one move per row,
// times in seconds with full float precision, empty "from" for initial
// placements. The format round-trips exactly and is the interchange
// format between cmd/tracegen and cmd/armsim -mobility-trace.

// WriteCSV writes the trace in the interchange format.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "portable", "from", "to"}); err != nil {
		return err
	}
	for _, m := range t.Moves {
		rec := []string{
			strconv.FormatFloat(m.Time, 'g', -1, 64),
			m.Portable,
			string(m.From),
			string(m.To),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace from the interchange format, validating the
// header, field counts and chain structure.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("mobility: reading trace header: %w", err)
	}
	want := []string{"time", "portable", "from", "to"}
	for i, h := range want {
		if header[i] != h {
			return nil, fmt.Errorf("mobility: bad trace header %v, want %v", header, want)
		}
	}
	out := &Trace{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mobility: trace line %d: %w", line, err)
		}
		tm, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("mobility: trace line %d: bad time %q", line, rec[0])
		}
		if rec[1] == "" {
			return nil, fmt.Errorf("mobility: trace line %d: empty portable", line)
		}
		if rec[3] == "" {
			return nil, fmt.Errorf("mobility: trace line %d: empty destination", line)
		}
		out.add(Move{
			Time:     tm,
			Portable: rec[1],
			From:     topology.CellID(rec[2]),
			To:       topology.CellID(rec[3]),
		})
	}
	out.sort()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
