//! URL parsing and relative resolution (RFC-1808 subset).
//!
//! AIDE keys everything on URLs: the snapshot archive is "addressed by
//! their URLs" (§2.2), w3newer matches configuration patterns against
//! them, and §4.1 describes the relative-link problem that the `BASE`
//! directive addresses when a page is served away from its origin. This
//! module implements the 1995-era URL model: `scheme://host:port/path?query`
//! plus `file:` and fragment handling, with relative resolution and dot
//! segment normalization.

use std::fmt;

/// A parsed URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    /// Lowercased scheme (`http`, `file`, `ftp`, …).
    pub scheme: String,
    /// Lowercased host; empty for `file:` URLs.
    pub host: String,
    /// Port if explicitly given.
    pub port: Option<u16>,
    /// Path beginning with `/` (or the opaque remainder for `mailto:`).
    pub path: String,
    /// Query string without the `?`, if present.
    pub query: Option<String>,
    /// Fragment without the `#`, if present.
    pub fragment: Option<String>,
}

/// Error from [`Url::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlError(pub String);

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad URL: {}", self.0)
    }
}

impl std::error::Error for UrlError {}

/// Percent-encodes `s` for a query-string value: every byte but RFC
/// 3986's unreserved characters becomes `%XX`. The result is also safe
/// inside an HTML attribute, since it holds no `"`, `&`, `<` or `>`.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Percent-encodes `s` for a path segment that embeds a whole URL (the
/// Memento routes' `/timemap/<url>`): `%`, space, `"`, `#`, `<`, `>`,
/// the other bytes a client would escape in a path, controls and
/// non-ASCII bytes become `%XX`; the rest, `/`, `?`, `&` and `=`
/// included, stay as written. [`percent_decode`] inverts it.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::url::{percent_decode, urlencode_path};
///
/// let url = "http://h/say \"hi\" 100%.html?a=1&b=2";
/// let path = urlencode_path(url);
/// assert_eq!(path, "http://h/say%20%22hi%22%20100%25.html?a=1&b=2");
/// assert_eq!(percent_decode(&path), url);
/// ```
pub fn urlencode_path(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'!' | b'$' | b'&'..=b';' | b'=' | b'?'..=b'[' | b']' | b'_' | b'a'..=b'z' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Makes `s` a URI reference (RFC 3986) for a link target such as a
/// `Link` header's `<…>`: percent-encodes space, `"`, `<`, `>`, `\`,
/// `^`, `` ` ``, `{`, `|`, `}`, controls, non-ASCII bytes and a `%` that
/// does not start a `%XX` escape. Everything a URI may hold stays as
/// written, `:/?#[]@!$&'()*+,;=` and existing escapes included, so a
/// URL that is already a URI reference comes back unchanged.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::url::uri_reference;
///
/// assert_eq!(uri_reference("http://h/a b<c>.html?x=1&y=%41"), "http://h/a%20b%3Cc%3E.html?x=1&y=%41");
/// assert_eq!(uri_reference("http://h/100%.html"), "http://h/100%25.html");
/// ```
pub fn uri_reference(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_hexdigit);
    let mut out = String::with_capacity(s.len());
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'%' if hex(i + 1) && hex(i + 2) => out.push('%'),
            b'!'
            | b'#'
            | b'$'
            | b'&'..=b';'
            | b'='
            | b'?'..=b'['
            | b']'
            | b'_'
            | b'a'..=b'z'
            | b'~' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Decodes every `%XX` in `s`; a `%` not followed by two hex digits
/// passes through. Unlike a query value, `+` stays `+`.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |i: usize| bytes.get(i).and_then(|&b| (b as char).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match (bytes[i], hex(i + 1), hex(i + 2)) {
            (b'%', Some(hi), Some(lo)) => {
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            (b, _, _) => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

impl Url {
    /// Parses an absolute URL.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_htmlkit::url::Url;
    ///
    /// let u = Url::parse("http://www.research.att.com:8000/orgs/ssr?q=1#top").unwrap();
    /// assert_eq!(u.scheme, "http");
    /// assert_eq!(u.host, "www.research.att.com");
    /// assert_eq!(u.port, Some(8000));
    /// assert_eq!(u.path, "/orgs/ssr");
    /// assert_eq!(u.query.as_deref(), Some("q=1"));
    /// assert_eq!(u.fragment.as_deref(), Some("top"));
    /// ```
    pub fn parse(s: &str) -> Result<Url, UrlError> {
        let s = s.trim();
        let colon = s
            .find(':')
            .ok_or_else(|| UrlError(format!("{s:?}: no scheme")))?;
        let scheme = s[..colon].to_ascii_lowercase();
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
            || !scheme
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
        {
            return Err(UrlError(format!("{s:?}: invalid scheme")));
        }
        let rest = &s[colon + 1..];
        let (host, port, after_authority) = if let Some(auth_rest) = rest.strip_prefix("//") {
            let auth_end = auth_rest.find(['/', '?', '#']).unwrap_or(auth_rest.len());
            let authority = &auth_rest[..auth_end];
            let (host, port) = match authority.rfind(':') {
                Some(i) => {
                    let p = authority[i + 1..]
                        .parse::<u16>()
                        .map_err(|_| UrlError(format!("{s:?}: bad port")))?;
                    (authority[..i].to_ascii_lowercase(), Some(p))
                }
                None => (authority.to_ascii_lowercase(), None),
            };
            (host, port, &auth_rest[auth_end..])
        } else {
            (String::new(), None, rest)
        };
        let (body, fragment) = match after_authority.find('#') {
            Some(i) => (
                &after_authority[..i],
                Some(after_authority[i + 1..].to_string()),
            ),
            None => (after_authority, None),
        };
        let (path, query) = match body.find('?') {
            Some(i) => (body[..i].to_string(), Some(body[i + 1..].to_string())),
            None => (body.to_string(), None),
        };
        let path = if path.is_empty() && !host.is_empty() {
            "/".to_string()
        } else {
            path
        };
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    /// The default port for well-known schemes.
    pub fn default_port(&self) -> Option<u16> {
        match self.scheme.as_str() {
            "http" => Some(80),
            "https" => Some(443),
            "ftp" => Some(21),
            "gopher" => Some(70),
            _ => None,
        }
    }

    /// The effective port (explicit or scheme default).
    pub fn effective_port(&self) -> Option<u16> {
        self.port.or_else(|| self.default_port())
    }

    /// Returns this URL without its fragment.
    pub fn without_fragment(&self) -> Url {
        Url {
            fragment: None,
            ..self.clone()
        }
    }

    /// Resolves `reference` (possibly relative) against `self` as the base.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_htmlkit::url::Url;
    ///
    /// let base = Url::parse("http://host/a/b/c.html").unwrap();
    /// assert_eq!(base.join("d.html").unwrap().path, "/a/b/d.html");
    /// assert_eq!(base.join("../x.html").unwrap().path, "/a/x.html");
    /// assert_eq!(base.join("/top.html").unwrap().path, "/top.html");
    /// assert_eq!(base.join("#sec2").unwrap().fragment.as_deref(), Some("sec2"));
    /// assert_eq!(base.join("ftp://other/f").unwrap().host, "other");
    /// ```
    pub fn join(&self, reference: &str) -> Result<Url, UrlError> {
        let reference = reference.trim();
        if reference.is_empty() {
            return Ok(self.clone());
        }
        // Absolute URL?
        if let Some(colon) = reference.find(':') {
            let scheme = &reference[..colon];
            if !scheme.is_empty()
                && scheme
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic())
                && scheme
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
                && !reference[..colon].contains('/')
            {
                return Url::parse(reference);
            }
        }
        // Network-path reference: //host/path
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        // Fragment-only reference.
        if let Some(frag) = reference.strip_prefix('#') {
            let mut u = self.clone();
            u.fragment = Some(frag.to_string());
            return Ok(u);
        }
        let (body, fragment) = match reference.find('#') {
            Some(i) => (&reference[..i], Some(reference[i + 1..].to_string())),
            None => (reference, None),
        };
        let (ref_path, query) = match body.find('?') {
            Some(i) => (&body[..i], Some(body[i + 1..].to_string())),
            None => (body, None),
        };
        let merged = if ref_path.starts_with('/') {
            ref_path.to_string()
        } else if ref_path.is_empty() {
            self.path.clone()
        } else {
            // Merge with the base path's directory.
            let dir = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            format!("{dir}{ref_path}")
        };
        Ok(Url {
            scheme: self.scheme.clone(),
            host: self.host.clone(),
            port: self.port,
            path: normalize_path(&merged),
            query,
            fragment,
        })
    }
}

/// Removes `.` and `..` segments from an absolute path.
fn normalize_path(path: &str) -> String {
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    let mut stack: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop();
            }
            s => stack.push(s),
        }
    }
    let mut out = String::from("/");
    out.push_str(&stack.join("/"));
    if trailing_slash && out.len() > 1 {
        out.push('/');
    }
    out
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.scheme)?;
        if !self.host.is_empty() {
            write!(f, "//{}", self.host)?;
            if let Some(p) = self.port {
                write!(f, ":{p}")?;
            }
        }
        write!(f, "{}", self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        if let Some(fr) = &self.fragment {
            write!(f, "#{fr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_http() {
        let u = Url::parse("http://www.yahoo.com/").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "www.yahoo.com");
        assert_eq!(u.path, "/");
        assert_eq!(u.port, None);
        assert_eq!(u.effective_port(), Some(80));
    }

    #[test]
    fn parse_host_only_gets_root_path() {
        let u = Url::parse("http://c2.com").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.to_string(), "http://c2.com/");
    }

    #[test]
    fn parse_with_port() {
        // The paper's example: http://snapple.cs.washington.edu:600/mobile/
        let u = Url::parse("http://snapple.cs.washington.edu:600/mobile/").unwrap();
        assert_eq!(u.port, Some(600));
        assert_eq!(u.path, "/mobile/");
    }

    #[test]
    fn parse_file_url() {
        let u = Url::parse("file:/home/douglis/hotlist.html").unwrap();
        assert_eq!(u.scheme, "file");
        assert_eq!(u.host, "");
        assert_eq!(u.path, "/home/douglis/hotlist.html");
    }

    #[test]
    fn host_and_scheme_lowercased_path_untouched() {
        let u = Url::parse("HTTP://WWW.ATT.COM/Research/INDEX.html").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "www.att.com");
        assert_eq!(u.path, "/Research/INDEX.html");
    }

    #[test]
    fn parse_errors() {
        assert!(Url::parse("no-scheme-here").is_err());
        assert!(Url::parse("http://host:notaport/").is_err());
        assert!(Url::parse("1http://x/").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "http://www.usenix.org/",
            "http://host:8080/a/b?x=1",
            "file:/etc/hosts",
            "http://host/path#frag",
            "gopher://gopher.tc.umn.edu/",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u, "roundtrip {s}");
        }
    }

    #[test]
    fn join_relative_document() {
        let base = Url::parse("http://h/dir/page.html").unwrap();
        assert_eq!(
            base.join("other.html").unwrap().to_string(),
            "http://h/dir/other.html"
        );
    }

    #[test]
    fn join_dotdot_chains() {
        let base = Url::parse("http://h/a/b/c/d.html").unwrap();
        assert_eq!(base.join("../../x.html").unwrap().path, "/a/x.html");
        assert_eq!(
            base.join("../../../../x.html").unwrap().path,
            "/x.html",
            "over-popping clamps at root"
        );
        assert_eq!(base.join("./y.html").unwrap().path, "/a/b/c/y.html");
    }

    #[test]
    fn join_absolute_path_and_url() {
        let base = Url::parse("http://h/a/b.html").unwrap();
        assert_eq!(base.join("/top").unwrap().to_string(), "http://h/top");
        assert_eq!(base.join("http://other/x").unwrap().host, "other");
    }

    #[test]
    fn join_network_path() {
        let base = Url::parse("http://h/a").unwrap();
        let u = base.join("//mirror.example.org/b").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "mirror.example.org");
        assert_eq!(u.path, "/b");
    }

    #[test]
    fn join_query_and_fragment() {
        let base = Url::parse("http://h/cgi-bin/s").unwrap();
        assert_eq!(
            base.join("?q=web").unwrap().to_string(),
            "http://h/cgi-bin/s?q=web"
        );
        let f = base.join("#middle").unwrap();
        assert_eq!(f.fragment.as_deref(), Some("middle"));
        assert_eq!(f.path, "/cgi-bin/s");
    }

    #[test]
    fn join_empty_reference_is_base() {
        let base = Url::parse("http://h/x").unwrap();
        assert_eq!(base.join("").unwrap(), base);
    }

    #[test]
    fn join_preserves_directory_trailing_slash() {
        let base = Url::parse("http://h/dir/").unwrap();
        assert_eq!(base.join("sub/").unwrap().path, "/dir/sub/");
        assert_eq!(base.join("..").unwrap().path, "/");
    }

    #[test]
    fn without_fragment() {
        let u = Url::parse("http://h/p#s").unwrap();
        assert_eq!(u.without_fragment().to_string(), "http://h/p");
    }

    #[test]
    fn relative_with_colon_in_path_is_not_absolute() {
        let base = Url::parse("http://h/dir/x").unwrap();
        // "a/b:c" has a '/' before ':' so it is a relative path.
        let u = base.join("a/b:c").unwrap();
        assert_eq!(u.host, "h");
        assert_eq!(u.path, "/dir/a/b:c");
    }
}
