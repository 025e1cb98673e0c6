pub fn l5_sites(v: &[u64]) -> u64 {
    let a = v.first().unwrap();
    let b = v[0];
    // lint: allow(panic) reason=fixture proves same-line-or-below suppression
    let c = v[1];
    let d = v.get(2).copied().unwrap_or(0);
    pulse("core.undeclared.site");
    pulse("core.good.site");
    a + b + c + d
}

pub trait First {
    fn first_or_zero<'a>(&'a self, rest: &'a [u64]) -> u64;
}

impl First for [u64] {
    fn first_or_zero<'a>(&'a self, _: &'a [u64]) -> u64 { self[0] }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt_from_l5() {
        let x: Option<u64> = None;
        x.unwrap();
    }
}
