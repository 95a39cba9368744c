package textutil

// Diacritic folding for cross-language surface matching (§3.2: the
// annotation service "needs to be multilingual"). Mentions written
// without accents ("Beyonce", "Jose") must match aliases stored with
// them ("Beyoncé", "José") and vice versa. FoldRune maps the common
// Latin-1 Supplement and Latin Extended-A letters onto their base ASCII
// letters; Tokenize applies it so both the alias dictionary and the
// document tokens are folded consistently.

// foldTable maps accented runes to ASCII replacements (0 = no fold); it
// is an array indexed by rune, covering the Latin-1 Supplement and Latin
// Extended-A blocks. Multi-rune expansions (æ→ae, ß→ss) are handled
// separately in FoldString.
var foldTable = [...]rune{
	'à': 'a', 'á': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a', 'ā': 'a', 'ă': 'a', 'ą': 'a',
	'ç': 'c', 'ć': 'c', 'ĉ': 'c', 'ċ': 'c', 'č': 'c',
	'ď': 'd', 'đ': 'd', 'ð': 'd',
	'è': 'e', 'é': 'e', 'ê': 'e', 'ë': 'e', 'ē': 'e', 'ĕ': 'e', 'ė': 'e', 'ę': 'e', 'ě': 'e',
	'ĝ': 'g', 'ğ': 'g', 'ġ': 'g', 'ģ': 'g',
	'ĥ': 'h', 'ħ': 'h',
	'ì': 'i', 'í': 'i', 'î': 'i', 'ï': 'i', 'ĩ': 'i', 'ī': 'i', 'ĭ': 'i', 'į': 'i', 'ı': 'i',
	'ĵ': 'j',
	'ķ': 'k',
	'ĺ': 'l', 'ļ': 'l', 'ľ': 'l', 'ŀ': 'l', 'ł': 'l',
	'ñ': 'n', 'ń': 'n', 'ņ': 'n', 'ň': 'n',
	'ò': 'o', 'ó': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o', 'ø': 'o', 'ō': 'o', 'ŏ': 'o', 'ő': 'o',
	'ŕ': 'r', 'ŗ': 'r', 'ř': 'r',
	'ś': 's', 'ŝ': 's', 'ş': 's', 'š': 's',
	'ţ': 't', 'ť': 't', 'ŧ': 't',
	'ù': 'u', 'ú': 'u', 'û': 'u', 'ü': 'u', 'ũ': 'u', 'ū': 'u', 'ŭ': 'u', 'ů': 'u', 'ű': 'u', 'ų': 'u',
	'ŵ': 'w',
	'ý': 'y', 'ÿ': 'y', 'ŷ': 'y',
	'ź': 'z', 'ż': 'z', 'ž': 'z',
	'þ': 't',
}

// FoldRune maps an accented lowercase Latin rune to its ASCII base, or
// returns the rune unchanged. Callers lowercase first.
func FoldRune(r rune) rune {
	if uint32(r) < uint32(len(foldTable)) && foldTable[r] != 0 {
		return foldTable[r]
	}
	return r
}

// FoldString lowercase-folds a string: each rune is folded, and the
// ligatures æ/œ/ß expand to two letters. Non-Latin scripts pass through
// unchanged.
func FoldString(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case 'æ':
			out = append(out, 'a', 'e')
		case 'œ':
			out = append(out, 'o', 'e')
		case 'ß':
			out = append(out, 's', 's')
		default:
			out = append(out, FoldRune(r))
		}
	}
	return string(out)
}
