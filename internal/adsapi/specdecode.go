package adsapi

import "strings"

// decodeSpecFast decodes raw when it lies in the canonical subset of the
// targeting_spec grammar, without reflection:
//
//   - JSON whitespace between tokens;
//   - exact-case known keys, each at most once per object:
//     geo_locations{countries,worldwide}, genders, age_min, age_max and
//     flexible_spec[{interests[{id,name}]}];
//   - printable-ASCII strings with no escapes;
//   - integers with no fraction, exponent or leading zero, of at most 9
//     digits, so no int can overflow;
//   - true and false;
//   - nothing after the value.
//
// For anything else — null, escapes, non-ASCII, folded-case, unknown or
// repeated keys, syntax errors — it reports false and decodes nothing: the
// caller falls back to unmarshalStrict, which decides and words every
// rejection. Whenever it accepts, its spec is reflect.DeepEqual to
// unmarshalStrict's (FuzzTargetingSpecFastPath), including encoding/json's
// distinction between an empty array (an empty non-nil slice) and an absent
// key (nil).
func decodeSpecFast(raw string) (TargetingSpec, bool) {
	d := specDecoder{s: raw}
	var spec TargetingSpec
	var seen keySet
	ok := d.object(func(key string) bool {
		switch key {
		case "geo_locations":
			return seen.first(0) && d.geo(&spec.GeoLocations)
		case "genders":
			return seen.first(1) && list(&d, &spec.Genders, d.integer)
		case "age_min":
			return seen.first(2) && d.integer(&spec.AgeMin)
		case "age_max":
			return seen.first(3) && d.integer(&spec.AgeMax)
		case "flexible_spec":
			return seen.first(4) && list(&d, &spec.FlexibleSpec, d.clause)
		}
		return false
	})
	d.ws()
	if !ok || d.i != len(d.s) {
		return TargetingSpec{}, false
	}
	return spec, true
}

// keySet records which of an object's known keys have been read.
type keySet uint8

// first reports whether key k is new, marking it read.
func (s *keySet) first(k uint) bool {
	if *s&(1<<k) != 0 {
		return false
	}
	*s |= 1 << k
	return true
}

// specDecoder is a cursor over a raw targeting_spec. Every method reports
// false when the input leaves the canonical subset.
type specDecoder struct {
	s string
	i int
}

// ws skips JSON whitespace.
func (d *specDecoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after any whitespace.
func (d *specDecoder) lit(c byte) bool {
	d.ws()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads one object, handing each key to member, which reads the
// value.
func (d *specDecoder) object(member func(key string) bool) bool {
	if !d.lit('{') {
		return false
	}
	if d.lit('}') {
		return true
	}
	for {
		var key string
		if !d.str(&key) || !d.lit(':') || !member(key) {
			return false
		}
		if d.lit('}') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
}

// list reads an array into *out, decoding each element with elem; []
// decodes to an empty non-nil slice, as encoding/json does.
func list[T any](d *specDecoder, out *[]T, elem func(*T) bool) bool {
	if !d.lit('[') {
		return false
	}
	vs := []T{}
	for !d.lit(']') {
		if len(vs) > 0 && !d.lit(',') {
			return false
		}
		vs = append(vs, *new(T))
		if !elem(&vs[len(vs)-1]) {
			return false
		}
	}
	*out = vs
	return true
}

// str reads a string of printable ASCII with no escapes; the result shares
// d.s's memory.
func (d *specDecoder) str(out *string) bool {
	if !d.lit('"') {
		return false
	}
	for start := d.i; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			*out = d.s[start:d.i]
			d.i++
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}

// integer reads an optionally negative integer of 1 to 9 digits with no
// leading zero. A fraction or exponent leaves the subset at the caller's
// next delimiter.
func (d *specDecoder) integer(out *int) bool {
	d.ws()
	neg := d.i < len(d.s) && d.s[d.i] == '-'
	if neg {
		d.i++
	}
	start, v := d.i, 0
	for ; d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9'; d.i++ {
		v = v*10 + int(d.s[d.i]-'0')
	}
	if n := d.i - start; n == 0 || n > 9 || (n > 1 && d.s[start] == '0') {
		return false
	}
	if neg {
		v = -v
	}
	*out = v
	return true
}

// boolean reads true or false.
func (d *specDecoder) boolean(out *bool) bool {
	d.ws()
	for _, lit := range [...]string{"false", "true"} {
		if strings.HasPrefix(d.s[d.i:], lit) {
			d.i += len(lit)
			*out = lit == "true"
			return true
		}
	}
	return false
}

func (d *specDecoder) geo(out *GeoLocations) bool {
	var seen keySet
	return d.object(func(key string) bool {
		switch key {
		case "countries":
			return seen.first(0) && list(d, &out.Countries, d.str)
		case "worldwide":
			return seen.first(1) && d.boolean(&out.Worldwide)
		}
		return false
	})
}

func (d *specDecoder) clause(out *FlexibleClause) bool {
	var seen keySet
	return d.object(func(key string) bool {
		return key == "interests" && seen.first(0) && list(d, &out.Interests, d.interest)
	})
}

func (d *specDecoder) interest(out *InterestRef) bool {
	var seen keySet
	return d.object(func(key string) bool {
		switch key {
		case "id":
			return seen.first(0) && d.str(&out.ID)
		case "name":
			return seen.first(1) && d.str(&out.Name)
		}
		return false
	})
}
