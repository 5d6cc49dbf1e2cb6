//! Minimal HTML page rendering and anchor extraction.
//!
//! The crawler (§4.2.2) visits the root page of every hostname, extracts
//! every link, and follows those with a valid country-code extension. To
//! exercise a *real* extraction code path, simulated pages are rendered
//! to actual HTML and the crawler parses `<a href=...>` attributes back
//! out of the markup rather than reading a side channel. A page is
//! rendered when its body is read ([`crate::HttpResponse::body`]), not
//! when its host is built: scanning never reads one.

/// Render a government-portal-shaped page whose nav and footer link to
/// `links` (absolute URLs or bare hostnames).
pub fn render_page(title: &str, links: &[String]) -> String {
    let mut out = String::with_capacity(256 + links.len() * 64);
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n  <meta charset=\"utf-8\">\n  <title>",
    );
    out.push_str(&escape(title));
    out.push_str("</title>\n</head>\n<body>\n  <header><h1>");
    out.push_str(&escape(title));
    out.push_str("</h1></header>\n  <nav>\n");
    for link in links {
        out.push_str("    <a href=\"");
        out.push_str(&escape(link));
        out.push_str("\">");
        out.push_str(&escape(link));
        out.push_str("</a>\n");
    }
    out.push_str("  </nav>\n  <main><p>Official government portal.</p></main>\n</body>\n</html>\n");
    out
}

/// Extract every `href` value from anchor tags in `html`. Tolerates
/// single-quoted, double-quoted, and unquoted attribute syntax, mixed
/// attribute order, and arbitrary whitespace — the long tail's HTML is
/// not tidy.
pub fn extract_links(html: &str) -> Vec<String> {
    let mut links = Vec::new();
    let lower = html.to_ascii_lowercase();
    let bytes = html.as_bytes();
    let mut pos = 0;
    while let Some(a_rel) = lower[pos..].find("<a") {
        let a_start = pos + a_rel;
        // Must be "<a" followed by whitespace or '>' (not e.g. <abbr>).
        let after = lower.as_bytes().get(a_start + 2).copied();
        if !matches!(
            after,
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') | Some(b'>')
        ) {
            pos = a_start + 2;
            continue;
        }
        let tag_end = match lower[a_start..].find('>') {
            Some(rel) => a_start + rel,
            None => break,
        };
        let tag = &lower[a_start..tag_end];
        if let Some(href_rel) = tag.find("href") {
            let mut i = a_start + href_rel + 4;
            // Skip whitespace and '='.
            while i < tag_end && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
            if i < tag_end && bytes[i] == b'=' {
                i += 1;
                while i < tag_end && (bytes[i] as char).is_whitespace() {
                    i += 1;
                }
                if i < tag_end {
                    let value = match bytes[i] {
                        q @ (b'"' | b'\'') => {
                            let start = i + 1;
                            html[start..tag_end]
                                .find(q as char)
                                .map(|end_rel| &html[start..start + end_rel])
                        }
                        _ => {
                            let start = i;
                            let end_rel = html[start..tag_end]
                                .find(|c: char| c.is_whitespace())
                                .unwrap_or(tag_end - start);
                            Some(&html[start..start + end_rel])
                        }
                    };
                    if let Some(v) = value {
                        let v = unescape(v.trim());
                        if !v.is_empty() {
                            links.push(v);
                        }
                    }
                }
            }
        }
        pos = tag_end + 1;
    }
    links
}

/// Extract the hostname from a URL or bare hostname string; returns
/// `None` for fragments, mailto links, relative paths, and IP literals.
pub fn link_hostname(link: &str) -> Option<String> {
    let link = link.trim();
    if link.is_empty() || link.starts_with('#') || link.starts_with("mailto:") {
        return None;
    }
    let rest = link
        .strip_prefix("https://")
        .or_else(|| link.strip_prefix("http://"))
        .or_else(|| link.strip_prefix("//"))
        .unwrap_or(link);
    if rest.starts_with('/') {
        return None; // relative path on same host
    }
    let host = rest
        .split(['/', '?', '#'])
        .next()
        .unwrap_or("")
        .split(':')
        .next()
        .unwrap_or("")
        .trim_end_matches('.')
        .to_ascii_lowercase();
    if host.is_empty() || !host.contains('.') {
        return None;
    }
    // Reject IPv4 literals.
    if host.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return None;
    }
    // Hostname charset check.
    if !host
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-')
    {
        return None;
    }
    Some(host)
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_extract_round_trip() {
        let links = vec![
            "https://www.nih.gov".to_string(),
            "http://stats.data.gouv.fr/page".to_string(),
            "https://environment.gov.au/dept?id=1".to_string(),
        ];
        let html = render_page("Ministry of Testing", &links);
        assert_eq!(extract_links(&html), links);
    }

    #[test]
    fn extracts_quoting_variants() {
        let html = r#"
            <a href="https://a.gov.uk">x</a>
            <a href='https://b.gov.fr'>y</a>
            <a href=https://c.gov.br>z</a>
            <a class="nav" href="https://d.go.kr" target="_blank">w</a>
            <A HREF="https://e.gov.in">caps</A>
        "#;
        let links = extract_links(html);
        assert_eq!(
            links,
            vec![
                "https://a.gov.uk",
                "https://b.gov.fr",
                "https://c.gov.br",
                "https://d.go.kr",
                "https://e.gov.in"
            ]
        );
    }

    #[test]
    fn ignores_non_anchor_tags_and_anchors_without_href() {
        let html =
            r#"<abbr title="x">y</abbr><a name="top">anchor</a><area href="https://map.gov">"#;
        assert!(extract_links(html).is_empty());
    }

    #[test]
    fn hostname_extraction() {
        assert_eq!(
            link_hostname("https://www.nih.gov/health"),
            Some("www.nih.gov".into())
        );
        assert_eq!(
            link_hostname("http://x.gov.bd:8080/a"),
            Some("x.gov.bd".into())
        );
        assert_eq!(
            link_hostname("//cdn.example.gov/lib.js"),
            Some("cdn.example.gov".into())
        );
        assert_eq!(
            link_hostname("WWW.EXAMPLE.GOV"),
            Some("www.example.gov".into())
        );
        assert_eq!(link_hostname("/relative/path"), None);
        assert_eq!(link_hostname("#fragment"), None);
        assert_eq!(link_hostname("mailto:webmaster@agency.gov"), None);
        assert_eq!(link_hostname("192.0.2.1/admin"), None);
        assert_eq!(link_hostname("localhost"), None);
        assert_eq!(link_hostname(""), None);
        assert_eq!(link_hostname("https://bad host.gov"), None);
    }

    #[test]
    fn escaping_round_trips() {
        let hostile = "https://x.gov/?q=\"<script>\"&r=1";
        let html = render_page("T", &[hostile.to_string()]);
        assert_eq!(extract_links(&html), vec![hostile.to_string()]);
    }
}
