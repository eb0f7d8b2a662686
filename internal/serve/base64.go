package serve

import "encoding/binary"

// b64Invalid marks a byte outside the standard base64 alphabet in
// b64Tables; alphabet entries use only the low 24 bits.
const b64Invalid = 0xff000000

// b64Tables[k][c] is the 6-bit value of alphabet character c shifted to
// position k of a 4-character quantum (k = 0 is the top 6 of the quantum's
// 24 bits), or b64Invalid for any other byte — '=' and '\r' included. A
// quantum is then four lookups and three ORs, and one test of the ORed top
// byte rejects any number of quanta at once.
var b64Tables = func() (t [4][256]uint32) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for k := range t {
		for c := range t[k] {
			t[k][c] = b64Invalid
		}
		for v, c := range []byte(alphabet) {
			t[k][c] = uint32(v) << (18 - 6*k)
		}
	}
	return t
}()

// decodeBase64 decodes one canonical span into dst, which holds at least
// len(src)/4*3 bytes, and reports false for any span outside the canonical
// set: a length that is not a multiple of four, or any byte outside the
// standard alphabet except a final quantum of the form xxx= or xx==. On
// that set it returns exactly what base64.StdEncoding.Decode returns; like
// that decoder it ignores the discarded bits of a padded quantum. Unlike
// it, it never skips '\r' or '\n', which JSON forbids raw inside a string.
func decodeBase64(dst, src []byte) ([]byte, bool) {
	if len(src)%4 != 0 {
		return nil, false
	}
	if len(src) == 0 {
		return dst[:0], true
	}
	t0, t1, t2, t3 := &b64Tables[0], &b64Tables[1], &b64Tables[2], &b64Tables[3]
	body, last := src[:len(src)-4], src[len(src)-4:]
	out := dst[:len(src)/4*3]
	// 16 characters per step; the final quantum stays out, so the step's
	// two 8-byte stores (12 bytes decoded, 2 overwritten next) fit in out.
	d := out
	for len(body) >= 16 {
		s := body[:16]
		q0 := t0[s[0]] | t1[s[1]] | t2[s[2]] | t3[s[3]]
		q1 := t0[s[4]] | t1[s[5]] | t2[s[6]] | t3[s[7]]
		q2 := t0[s[8]] | t1[s[9]] | t2[s[10]] | t3[s[11]]
		q3 := t0[s[12]] | t1[s[13]] | t2[s[14]] | t3[s[15]]
		if (q0|q1|q2|q3)&b64Invalid != 0 {
			return nil, false
		}
		binary.BigEndian.PutUint64(d, uint64(q0)<<40|uint64(q1)<<16)
		binary.BigEndian.PutUint64(d[6:], uint64(q2)<<40|uint64(q3)<<16)
		body, d = body[16:], d[12:]
	}
	for len(body) >= 4 {
		q := t0[body[0]] | t1[body[1]] | t2[body[2]] | t3[body[3]]
		if q&b64Invalid != 0 {
			return nil, false
		}
		d[0], d[1], d[2] = byte(q>>16), byte(q>>8), byte(q)
		body, d = body[4:], d[3:]
	}
	n := len(out)
	q := t0[last[0]] | t1[last[1]]
	switch {
	case last[3] != '=':
		q |= t2[last[2]] | t3[last[3]]
	case last[2] != '=':
		q |= t2[last[2]]
		n--
	default:
		n -= 2
	}
	if q&b64Invalid != 0 {
		return nil, false
	}
	d[0], d[1], d[2] = byte(q>>16), byte(q>>8), byte(q)
	return out[:n], true
}
