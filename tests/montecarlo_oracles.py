"""Monte Carlo estimates read against the DP, for tests only.

covers asks whether an estimate's 95% interval holds the exact value, and
estimates_to_csv puts the point estimate in the exact column and the 95%
half-width in the rhs column, so a test can lay the estimator next to a DP
report.
"""


def covers(ci, truth: float) -> bool:
    """Whether the 95% interval of the estimate ci holds truth."""
    return abs(ci.point - truth) <= ci.half_width_95


def estimates_to_csv(estimates: dict, x: int) -> str:
    """First-passage estimates in the verification-report column layout."""
    lines = ["schema_version,n,x,y,exact,rhs,ratio,regime,source"]
    for n in sorted(estimates["f"]):
        ci = estimates["f"][n]
        lines.append(
            f"1,{n},{x},,{ci.point:.17g},{ci.half_width_95:.17g},,f,montecarlo"
        )
    for n in sorted(estimates["survival"]):
        ci = estimates["survival"][n]
        lines.append(
            f"1,{n},{x},,{ci.point:.17g},{ci.half_width_95:.17g},,survival,montecarlo"
        )
    return "\n".join(lines) + "\n"
