package circuit

import "unicode/utf8"

// maxExcerpt bounds how many bytes of its input a parse error quotes. A
// .bench line may be up to 1 MiB long and a Verilog statement has no cap,
// while an error outlives its input: a served job keeps its error and sends
// it in every status response.
const maxExcerpt = 80

// excerpt returns s for quoting in an error message: s itself when short,
// else its first maxExcerpt bytes, cut at a rune boundary and marked "…".
func excerpt(s string) string {
	if len(s) <= maxExcerpt {
		return s
	}
	n := maxExcerpt
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}
