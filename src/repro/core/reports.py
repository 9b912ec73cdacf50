"""Text rendering of every paper table and figure.

Each ``render_*`` function takes analysis outputs and returns the rows the
paper reports, with the paper's published value printed next to the
measured one.  The benchmark harness prints these; EXPERIMENTS.md records
them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.account_setup import AccountSetupReport
from repro.analysis.efficacy import EfficacyReport
from repro.analysis.figures import ListingDynamics
from repro.analysis.marketplace_anatomy import AnatomyReport, MarketplaceAnatomy
from repro.analysis.network import NetworkReport
from repro.analysis.scam_posts import ScamReport
from repro.analysis.underground_analysis import UndergroundReport
from repro.synthetic import calibration as cal
from repro.util.money import format_usd


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with column alignment."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_table1(report: AnatomyReport, scale: float) -> str:
    """Table 1: sellers and listings per marketplace, vs paper."""
    rows = []
    for market, (paper_sellers, paper_listings) in cal.MARKETPLACE_TABLE1.items():
        sellers, listings = report.table1.get(market, (0, 0))
        rows.append(
            (
                market,
                sellers,
                "-" if market in cal.SELLER_HIDDEN_MARKETS else round(paper_sellers * scale),
                listings,
                round(paper_listings * scale),
            )
        )
    rows.append(
        ("Total", report.sellers_total, round(cal.TOTAL_SELLERS * scale),
         report.listings_total, round(cal.TOTAL_LISTINGS * scale))
    )
    return "Table 1 - marketplaces (measured vs paper, scaled)\n" + _table(
        ("Marketplace", "Sellers", "Paper", "Listings", "Paper"), rows
    )


def render_table2(report: AnatomyReport, scale: float) -> str:
    rows = []
    for platform, (pv, pp, pa) in cal.PLATFORM_TABLE2.items():
        visible, posts, all_count = report.table2.get(platform, (0, 0, 0))
        rows.append(
            (platform, visible, round(pv * scale), posts, round(pp * scale),
             all_count, round(pa * scale))
        )
    rows.append(
        ("Total", report.visible_total, round(cal.TOTAL_VISIBLE * scale),
         report.posts_total, round(cal.TOTAL_POSTS * scale),
         report.listings_total, round(cal.TOTAL_LISTINGS * scale))
    )
    return "Table 2 - data collection (measured vs paper, scaled)\n" + _table(
        ("Platform", "Visible", "Paper", "Posts", "Paper", "All", "Paper"), rows
    )


def render_table3(payment_matrix: Dict[str, Dict[str, List[str]]]) -> str:
    """Rows in marketplace-registry order, whatever order the matrix
    arrives in (a reloaded ``study_meta.json`` has sorted keys)."""
    rows = []
    for market, paper_methods in cal.PAYMENT_METHODS.items():
        groups = payment_matrix.get(market)
        if groups is None:
            continue
        expected = {m for _g, m in paper_methods if m != "Unknown"}
        found = {m for ms in groups.values() for m in ms if m != "Unknown"}
        rows.append(
            (
                market,
                ", ".join(sorted(found)) or "Unknown",
                "match" if found == expected else f"paper: {sorted(expected) or 'Unknown'}",
            )
        )
    return "Table 3 - payment methods per marketplace\n" + _table(
        ("Marketplace", "Methods found", "vs paper"), rows
    )


def render_table4(report: AccountSetupReport) -> str:
    rows = []
    for platform, (pmin, pmed, pmax) in cal.VISIBLE_FOLLOWERS.items():
        summary = report.followers_by_platform.get(platform)
        if summary is None:
            continue
        rows.append(
            (platform, int(summary.minimum), pmin, int(summary.median), pmed,
             int(summary.maximum), f"{pmax:,}")
        )
    return "Table 4 - visible-account followers (measured vs paper)\n" + _table(
        ("Platform", "Min", "Paper", "Median", "Paper", "Max", "Paper"), rows
    )


def render_table5(report: ScamReport, scale: float) -> str:
    rows = []
    for platform, (pa, pp) in cal.SCAM_TABLE5.items():
        accounts, posts = report.table5.get(platform, (0, 0))
        rows.append(
            (platform, accounts, round(pa * scale), posts, round(pp * scale))
        )
    rows.append(
        ("Total", report.total_scam_accounts, round(cal.TOTAL_SCAM_ACCOUNTS * scale),
         report.total_scam_posts, round(cal.TOTAL_SCAM_POSTS * scale))
    )
    return "Table 5 - scam accounts/posts per platform (measured vs paper, scaled)\n" + _table(
        ("Platform", "Accounts", "Paper", "Posts", "Paper"), rows
    )


def render_table6(report: ScamReport, scale: float) -> str:
    rows = []
    for category, subtypes in cal.SCAM_TAXONOMY.items():
        measured = report.table6.get(category, {})
        cat_accounts = sum(a for a, _p in measured.values())
        cat_posts = sum(p for _a, p in measured.values())
        paper_accounts = sum(a for a, _p in subtypes.values())
        paper_posts = sum(p for _a, p in subtypes.values())
        rows.append(
            (category, cat_accounts, round(paper_accounts * scale),
             cat_posts, round(paper_posts * scale))
        )
        for subtype, (pa, pp) in subtypes.items():
            accounts, posts = measured.get(subtype, (0, 0))
            rows.append(
                (f"  - {subtype}", accounts, round(pa * scale), posts, round(pp * scale))
            )
    return "Table 6 - scam taxonomy (measured vs paper, scaled)\n" + _table(
        ("Category", "Accounts", "Paper", "Posts", "Paper"), rows
    )


def render_table7(report: NetworkReport, scale: float) -> str:
    rows = []
    for platform, (attr, pclusters, paccounts, pmax, pmedian) in cal.NETWORK_TABLE7.items():
        stats = report.per_platform.get(platform)
        if stats is None:
            continue
        rows.append(
            (platform, stats.attributes, stats.clusters, round(pclusters * scale),
             stats.cluster_accounts, round(paccounts * scale),
             stats.max_size, pmax, f"{stats.cluster_fraction * 100:.1f}%")
        )
    rows.append(
        ("All", "-", report.total_clusters, round(cal.TOTAL_CLUSTERS * scale),
         report.total_cluster_accounts, round(cal.TOTAL_CLUSTERED_ACCOUNTS * scale),
         "-", 46, f"{report.overall_fraction * 100:.1f}%")
    )
    return "Table 7 - network clusters (measured vs paper, scaled)\n" + _table(
        ("Platform", "Attributes", "Clusters", "Paper", "Accts", "Paper",
         "Max", "Paper", "Share"), rows
    )


def render_table8(report: EfficacyReport) -> str:
    rows = []
    for platform, paper_rate in cal.BLOCKING_EFFICACY.items():
        eff = report.per_platform.get(platform)
        if eff is None:
            continue
        rows.append(
            (platform, eff.visible_accounts, eff.inactive_accounts,
             f"{eff.efficacy_percent:.2f}", f"{paper_rate * 100:.2f}")
        )
    rows.append(
        ("All", report.total_visible, report.total_inactive,
         f"{report.overall_percent:.2f}", f"{cal.OVERALL_EFFICACY * 100:.2f}")
    )
    return "Table 8 - detection efficacy (measured vs paper, %)\n" + _table(
        ("Platform", "Visible", "Inactive", "Efficacy", "Paper"), rows
    )


def render_table9(channels) -> str:
    monitored = [c for c in channels if c.monitored]
    selling = [c for c in channels if c.selling]
    handles = [c for c in channels if c.handles_public]
    rows = [
        ("websites", sum(1 for c in channels if c.category != "Contact"),
         cal.CHANNELS_TOTAL_SITES + 2),  # paper: 58 sites (+ some double-listed)
        ("contact points", sum(1 for c in channels if c.category == "Contact"),
         cal.CHANNELS_CONTACT_POINTS),
        ("selling accounts", len(selling), "-"),
        ("handles public", len(handles), 12),
        ("monitored", len(monitored), "-"),
    ]
    return "Table 9 - trading channel triage (measured vs paper)\n" + _table(
        ("Channel class", "Count", "Paper"), rows
    )


def render_fig2(dynamics: ListingDynamics) -> str:
    rows = [
        (i, dynamics.active[i], dynamics.cumulative[i])
        for i in dynamics.iterations
    ]
    shape = (
        f"active declines after peak: {dynamics.active_declines} (paper: True); "
        f"cumulative monotonic: {dynamics.cumulative_monotonic} (paper: True)"
    )
    return (
        "Figure 2 - listing dynamics per iteration\n"
        + _table(("Iteration", "Active", "Cumulative"), rows)
        + "\n" + shape
    )


def render_fig3(outlier) -> str:
    if outlier is None:
        return "Figure 3 - no extreme-price outlier found (paper: $50M FameSwap listing)"
    return (
        "Figure 3 - extreme-price exemplar\n"
        f"marketplace={outlier.marketplace} (paper: FameSwap), "
        f"price={format_usd(outlier.price_usd)} (paper: $50,000,000), "
        f"followers={outlier.followers_claimed:,} (paper: ~990,000)"
    )


def render_fig4(report: AccountSetupReport) -> str:
    rows = []
    for platform, stats in report.creation_by_platform.items():
        rows.append(
            (platform, f"{stats.pre_2020_fraction * 100:.1f}%",
             stats.earliest_year, cal.CREATION_YEAR_FLOOR.get(platform, "-"),
             f"{stats.fraction_2006_2010 * 100:.2f}%")
        )
    overall = report.creation_overall
    rows.append(
        ("All", f"{overall.pre_2020_fraction * 100:.1f}%", overall.earliest_year,
         2006, f"{overall.fraction_2006_2010 * 100:.2f}%")
    )
    return (
        "Figure 4 - creation dates (paper: ~30% pre-2020; <0.5% of YouTube in 2006-2010)\n"
        + _table(("Platform", "Pre-2020", "Earliest", "Paper floor", "2006-2010"), rows)
    )


def render_fig5(descriptions: List[str]) -> str:
    lines = ["Figure 5 - exemplar cluster profile descriptions"]
    for index, text in enumerate(descriptions, 1):
        lines.append(f"  {index}. {text}")
    return "\n".join(lines)


def render_underground(report: UndergroundReport) -> str:
    rows = []
    for market, (pposts, psellers, _platforms) in cal.UNDERGROUND_MARKETS.items():
        stats = report.markets.get(market)
        if stats is None:
            rows.append((market, 0, pposts, 0, psellers))
            continue
        rows.append((market, stats.posts, pposts, stats.sellers, psellers))
    reuse_lines = []
    for platform, reuse in report.reuse_by_platform.items():
        paper = (
            f"{cal.UNDERGROUND_TIKTOK_REUSED}/{cal.UNDERGROUND_TIKTOK_POSTS}"
            if platform == "TikTok"
            else "/".join(map(str, cal.UNDERGROUND_OTHER_REUSE.get(platform, (0, 0))))
        )
        reuse_lines.append(
            f"  {platform}: reused {reuse.reused_posts}/{reuse.posts} "
            f"(paper {paper}), similarity {reuse.min_similarity:.2f}-"
            f"{reuse.max_similarity:.2f} (paper 0.88-1.00), "
            f"authors {reuse.authors_involved}"
        )
    return (
        "Section 4.2 - underground markets (measured vs paper)\n"
        + _table(("Market", "Posts", "Paper", "Sellers", "Paper"), rows)
        + f"\ntotal posts: {report.total_posts} (paper {cal.UNDERGROUND_TOTAL_POSTS})\n"
        + "\n".join(reuse_lines)
        + f"\ncross-market sellers: {len(report.cross_market_sellers)} "
        f"(paper {cal.UNDERGROUND_CROSS_MARKET_SELLERS})"
    )


def render_anatomy_extras(report: AnatomyReport, scale: float) -> str:
    top_cats = MarketplaceAnatomy.top_categories(report)
    top_countries = MarketplaceAnatomy.top_seller_countries(report)
    prices = report.prices
    lines = [
        "Section 4.1 extras (measured vs paper, scaled)",
        f"categories: {len(report.category_counts)} unique "
        f"(paper {cal.LISTING_CATEGORY_COUNT}); uncategorized "
        f"{report.uncategorized / max(1, report.listings_total) * 100:.0f}% (paper 22%)",
        "top categories: " + ", ".join(f"{c} ({n})" for c, n in top_cats)
        + "  [paper head: " + ", ".join(c for c, _n in cal.LISTING_TOP_CATEGORIES) + "]",
        "top seller countries: " + ", ".join(f"{c} ({n})" for c, n in top_countries)
        + "  [paper head: US, Ethiopia, Pakistan, UK, Turkey]",
        f"verified claims: {report.verified_count} "
        f"(paper {round(cal.VERIFIED_LISTINGS * scale)}), platforms "
        f"{dict(report.verified_platforms)} (paper: all YouTube), "
        f"with profile URL: {report.verified_with_profile_url} (paper 0)",
        f"monetized: {report.monetized.count} listings "
        f"(paper {round(cal.MONETIZED_LISTINGS * scale)}), median "
        f"{format_usd(report.monetized.median)}/mo (paper $136)",
        f"descriptions: {report.description_count / max(1, report.listings_total) * 100:.0f}% "
        "(paper 63%)",
        "price medians: " + ", ".join(
            f"{p}={format_usd(v)} (paper {format_usd(cal.PRICE_MEDIANS[p])})"
            for p, v in prices.medians_by_platform.items()
        ),
        f"total advertised: {format_usd(prices.overall_total)} "
        f"(paper {format_usd(cal.TOTAL_ADVERTISED_VALUE)} at scale 1.0)",
        f"top-grossing platform: {prices.top_platform} (paper TikTok); "
        f"lowest: {prices.bottom_platform} (paper Facebook)",
        f">$20K block: {prices.high_price_count} listings "
        f"(paper {round(cal.HIGH_PRICE_COUNT * scale)}), median "
        f"{format_usd(prices.high_price_median)} (paper $45,000), max "
        f"{format_usd(prices.high_price_max)} (paper $5,000,000)",
    ]
    return "\n".join(lines)


__all__ = [name for name in dir() if name.startswith("render_")]
