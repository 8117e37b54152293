package fdvt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

// userRecord is the JSON-lines on-disk form of one panel user — the shape
// of the anonymized dataset the FDVT study collected (§2.2): declared
// demographics plus the interest set, nothing else.
type userRecord struct {
	ID       int64    `json:"id"`
	Country  string   `json:"country"`
	Gender   string   `json:"gender"`
	Age      int      `json:"age,omitempty"`
	Interest []uint32 `json:"interests"`
}

// Export writes the panel as JSON lines (one user per line). The format is
// stable and diff-friendly; interests are stored as catalog IDs.
func (p *Panel) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, u := range p.Users {
		rec := userRecord{
			ID:      u.ID,
			Country: u.Country,
			Gender:  u.Gender.String(),
			Age:     u.Age,
		}
		rec.Interest = make([]uint32, len(u.Interests))
		for i, id := range u.Interests {
			rec.Interest[i] = uint32(id)
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("fdvt: exporting user %d: %w", u.ID, err)
		}
	}
	return bw.Flush()
}

// Import reads a panel previously written by Export. The catalog bounds
// interest IDs; records referencing unknown interests are rejected.
func Import(r io.Reader, cat *interest.Catalog) (*Panel, error) {
	if cat == nil {
		return nil, errors.New("fdvt: catalog is required for import")
	}
	p := &Panel{}
	dec := json.NewDecoder(bufio.NewReader(r))
	line := 0
	for {
		var rec userRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("fdvt: import record %d: %w", line, err)
		}
		line++
		u := &population.User{
			ID:      rec.ID,
			Country: rec.Country,
			Gender:  parseGender(rec.Gender),
			Age:     rec.Age,
		}
		u.Interests = make([]interest.ID, len(rec.Interest))
		for i, raw := range rec.Interest {
			id := interest.ID(raw)
			if !cat.Has(id) {
				return nil, fmt.Errorf("fdvt: import record %d: interest: unknown id %d", line, id)
			}
			u.Interests[i] = id
			if i > 0 && u.Interests[i] <= u.Interests[i-1] {
				return nil, fmt.Errorf("fdvt: import record %d: interests not sorted/unique", line)
			}
		}
		p.Users = append(p.Users, u)
	}
	if len(p.Users) == 0 {
		return nil, errors.New("fdvt: import found no users")
	}
	return p, nil
}

func parseGender(s string) population.Gender {
	switch s {
	case "male":
		return population.GenderMale
	case "female":
		return population.GenderFemale
	default:
		return population.GenderUndisclosed
	}
}
