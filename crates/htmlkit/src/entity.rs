//! HTML character entities.
//!
//! Covers the HTML 2.0 named entities (the ones 1995 documents actually
//! used) plus numeric references. Decoding is forgiving: an unrecognized
//! or malformed entity passes through literally, as browsers of the era
//! rendered it.

use std::borrow::Cow;

/// Decodes character entities in `text`, borrowing it when it holds no
/// `&` (so there is nothing to decode).
///
/// # Examples
///
/// ```
/// use aide_htmlkit::entity::decode_entities;
///
/// assert_eq!(decode_entities("AT&amp;T &lt;labs&gt;"), "AT&T <labs>");
/// assert_eq!(decode_entities("&#65;&#x42;"), "AB");
/// assert_eq!(decode_entities("R&D"), "R&D"); // bare & passes through
/// ```
pub fn decode_entities(text: &str) -> Cow<'_, str> {
    if !text.contains('&') {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&text[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        // Find a terminating ';' within a reasonable distance.
        let end = text[i + 1..]
            .char_indices()
            .take(12)
            .find(|&(_, c)| c == ';')
            .map(|(off, _)| i + 1 + off);
        match end {
            Some(semi) => {
                let name = &text[i + 1..semi];
                match decode_one(name) {
                    Some(decoded) => {
                        out.push(decoded);
                        i = semi + 1;
                    }
                    None => {
                        out.push('&');
                        i += 1;
                    }
                }
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    Cow::Owned(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The character entity `&name;` stands for, if it is one.
fn decode_one(name: &str) -> Option<char> {
    if let Some(rest) = name.strip_prefix('#') {
        let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            rest.parse::<u32>().ok()?
        };
        return char::from_u32(code);
    }
    let ch = match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => '\u{A0}',
        "copy" => '©',
        "reg" => '®',
        "trade" => '™',
        "agrave" => 'à',
        "aacute" => 'á',
        "eacute" => 'é',
        "egrave" => 'è',
        "iacute" => 'í',
        "oacute" => 'ó',
        "uacute" => 'ú',
        "ntilde" => 'ñ',
        "ouml" => 'ö',
        "uuml" => 'ü',
        "auml" => 'ä',
        "szlig" => 'ß',
        "ccedil" => 'ç',
        "Agrave" => 'À',
        "Eacute" => 'É',
        "middot" => '·',
        "para" => '¶',
        "sect" => '§',
        _ => return None,
    };
    Some(ch)
}

/// Encodes the characters that must be escaped in HTML text content.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::entity::encode_entities;
///
/// assert_eq!(encode_entities("a < b & c > d"), "a &lt; b &amp; c &gt; d");
/// ```
pub fn encode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_encoded(&mut out, text);
    out
}

/// Appends `text` to `out` with the characters [`encode_entities`]
/// escapes replaced, copying the runs between them whole.
pub(crate) fn push_encoded(out: &mut String, text: &str) {
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let escaped = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&text[run..i]);
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode_entities("&amp;&lt;&gt;&quot;"), "&<>\"");
        assert_eq!(decode_entities("&copy; 1995 AT&amp;T"), "© 1995 AT&T");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode_entities("&#72;&#105;"), "Hi");
        assert_eq!(decode_entities("&#x48;&#X69;"), "Hi");
        assert_eq!(decode_entities("&#955;"), "λ");
    }

    #[test]
    fn malformed_entities_pass_through() {
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("&"), "&");
        assert_eq!(decode_entities("&;"), "&;");
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#1114112;"), "&#1114112;"); // out of range
    }

    #[test]
    fn unterminated_entity_passes_through() {
        assert_eq!(
            decode_entities("&ampersand with no semi"),
            "&ampersand with no semi"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let raw = "x < y && \"quoted\" > z";
        assert_eq!(decode_entities(&encode_entities(raw)), raw);
    }

    #[test]
    fn multibyte_text_untouched() {
        assert_eq!(decode_entities("caf\u{e9} ☕"), "café ☕");
    }
}
