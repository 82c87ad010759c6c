// Deliberately broken "hot-path" source: every lint rule fires at least
// once, and the golden test pins the exact findings. NOT compiled — read
// as text by tests/golden.rs.

fn read_clock() -> i64 {
    let _t = std::time::Instant::now();
    let _w = SystemTime::now();
    0
}

fn hot_path(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b == 0 {
        panic!("impossible");
    }
    a
}

fn suppressed(x: Option<u32>) -> u32 {
    // Invariant: caller checked is_some. lint:allow(no-unwrap)
    x.unwrap()
}

fn registers(r: &Registry) {
    r.counter("bad.metric.name", "dots are not allowed", labels!());
}

const WRITTEN_IN_PLACE: PageFamily = PageFamily::gauge("bad-page-family", "dashes neither");

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_here() {
        Some(1).unwrap();
    }
}
