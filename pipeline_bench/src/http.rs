//! The load client's side of the HTTP/1.1 dialect `tcl-serve` speaks:
//! request encoding and response framing over a keep-alive byte stream
//! that may carry several pipelined responses at once.

use tcl_telemetry::json;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
    /// The `Content-Length` bytes after the head.
    pub body: Vec<u8>,
}

/// Longest response head the client accepts before declaring the stream
/// broken.
const MAX_HEAD: usize = 16 * 1024;

/// Splits the first complete response off the front of `buf`.
///
/// Returns `Ok(None)` while the response is still incomplete, and
/// `Ok(Some((response, consumed)))` once head and body are both buffered;
/// the caller drains `consumed` bytes and calls again, since a pipelined
/// stream can hold further responses behind the first.
///
/// # Errors
///
/// A malformed status line or `Content-Length`, or a head longer than
/// 16 KiB.
pub fn take_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some((head_len, term_len)) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(format!("no response head in {} bytes", buf.len()));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| format!("bad status code in {status_line:?}"))?,
        _ => return Err(format!("bad status line {status_line:?}")),
    };
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len = value
                .parse::<usize>()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
            if content_length.is_some_and(|prev| prev != len) {
                return Err("conflicting Content-Length headers".to_string());
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let body_start = head_len + term_len;
    let body_end = body_start + content_length.unwrap_or(0);
    if buf.len() < body_end {
        return Ok(None);
    }
    let response = Response {
        status,
        close,
        body: buf[body_start..body_end].to_vec(),
    };
    Ok(Some((response, body_end)))
}

/// Offset and length of the head terminator (`\r\n\r\n`, or a bare `\n\n`).
fn find_head_end(bytes: &[u8]) -> Option<(usize, usize)> {
    (0..bytes.len()).find_map(|i| {
        if bytes[i..].starts_with(b"\r\n\r\n") {
            Some((i, 4))
        } else if bytes[i..].starts_with(b"\n\n") {
            Some((i, 2))
        } else {
            None
        }
    })
}

/// A kept-alive `POST /infer` for one sample.
///
/// Each value is written as the shortest decimal of its `f64` widening, so
/// the server's `f64` parse narrows back to the exact same `f32` bits.
pub fn infer_request(sample: &[f32]) -> Vec<u8> {
    let mut body = String::with_capacity(sample.len() * 12 + 16);
    body.push_str("{\"sample\":[");
    for (i, &v) in sample.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::number_into(f64::from(v), &mut body);
    }
    body.push_str("]}");
    let mut req = format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Connection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

/// `(pred, steps)` from a 200 `/infer` body.
pub fn parse_infer(body: &[u8]) -> Option<(usize, usize)> {
    let text = std::str::from_utf8(body).ok()?;
    let value = json::parse_line(text.trim()).ok()?;
    let pred = usize::try_from(value.get("pred")?.as_u64()?).ok()?;
    let steps = usize::try_from(value.get("steps")?.as_u64()?).ok()?;
    Some((pred, steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str, close: bool) -> Vec<u8> {
        tcl_serve::response_with(status, body, None, !close)
    }

    #[test]
    fn pipelined_keep_alive_stream_splits_into_responses_in_order() {
        let mut stream = Vec::new();
        stream.extend(response(
            200,
            "{\"pred\":3,\"steps\":40,\"early\":true}",
            false,
        ));
        stream.extend(response(429, "{\"error\":\"overloaded\"}", false));
        stream.extend(response(200, "{\"pred\":7,\"steps\":256}", true));
        let mut buf = stream.as_slice();
        let mut seen = Vec::new();
        while let Some((resp, used)) = take_response(buf).expect("well-formed") {
            seen.push(resp);
            buf = &buf[used..];
        }
        assert!(buf.is_empty());
        let statuses: Vec<u16> = seen.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [200, 429, 200]);
        assert_eq!(parse_infer(&seen[0].body), Some((3, 40)));
        assert_eq!(parse_infer(&seen[2].body), Some((7, 256)));
        assert_eq!(parse_infer(&seen[1].body), None);
        assert!(!seen[0].close && seen[2].close);
    }

    #[test]
    fn partial_bytes_wait_for_the_rest_at_every_split_point() {
        let mut stream = response(200, "{\"pred\":1,\"steps\":17}", false);
        stream.extend(response(200, "{\"pred\":2,\"steps\":18}", false));
        for cut in 0..stream.len() {
            // Feed the stream in two chunks; the first response must frame
            // exactly once both its head and body have arrived.
            let mut buf = stream[..cut].to_vec();
            let mut out = Vec::new();
            while let Some((resp, used)) = take_response(&buf).expect("well-formed") {
                out.push(resp);
                buf.drain(..used);
            }
            buf.extend_from_slice(&stream[cut..]);
            while let Some((resp, used)) = take_response(&buf).expect("well-formed") {
                out.push(resp);
                buf.drain(..used);
            }
            assert!(buf.is_empty(), "cut {cut}");
            let parsed: Vec<_> = out.iter().map(|r| parse_infer(&r.body)).collect();
            assert_eq!(parsed, [Some((1, 17)), Some((2, 18))], "cut {cut}");
        }
    }

    #[test]
    fn malformed_heads_are_errors_not_panics() {
        assert!(take_response(b"garbage\r\n\r\n").is_err());
        assert!(take_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(take_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(take_response(
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab"
        )
        .is_err());
        assert!(take_response(&[b'a'; MAX_HEAD + 1]).is_err());
        assert_eq!(take_response(b"HTTP/1.1 200 OK\r\nContent-Le"), Ok(None));
    }

    #[test]
    fn request_values_survive_the_servers_f64_parse_bit_for_bit() {
        let sample = [0.1f32, -1.0e-7, 3.402_823_5e38, 1.0 / 3.0, -0.0];
        let req = infer_request(&sample);
        let text = String::from_utf8(req).expect("ascii");
        let (head, body) = text.split_once("\r\n\r\n").expect("head");
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        let value = json::parse_line(body).expect("json");
        let parsed: Vec<f32> = value
            .get("sample")
            .and_then(|s| s.as_array())
            .expect("array")
            .iter()
            .map(|v| v.as_f64().expect("number") as f32)
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parsed), bits(&sample));
    }
}
