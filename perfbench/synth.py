"""Deterministic synthetic CSVs shaped like UCI Adult and German credit.

The columns, roles and category levels match configs/adult.schema and
configs/german.schema, so the shipped configs run on them unchanged.
Every level of every categorical column occurs at least once, so the
encoded widths equal the real datasets': Adult gives 6 numerical and
91 one-hot columns, German 6 numerical and 54 one-hot columns.

The label depends only on non-sensitive columns. Sex and race reach it
through the features they shift (marital status, hours, occupation),
and German age through employment, as in the real data. Same seed,
same bytes.
"""

from __future__ import annotations

import numpy as np

ADULT_HEADER = [
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
    "income",
]

# Levels as they occur in the real file once rows with "?" are dropped.
WORKCLASS = ("Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay")
WORKCLASS_P = (0.74, 0.08, 0.035, 0.03, 0.07, 0.043, 0.002)
# (level, education-num, share)
EDUCATION = (
    ("Preschool", 1, 0.002), ("1st-4th", 2, 0.005), ("5th-6th", 3, 0.01),
    ("7th-8th", 4, 0.019), ("9th", 5, 0.015), ("10th", 6, 0.027),
    ("11th", 7, 0.035), ("12th", 8, 0.013), ("HS-grad", 9, 0.327),
    ("Some-college", 10, 0.219), ("Assoc-voc", 11, 0.043),
    ("Assoc-acdm", 12, 0.033), ("Bachelors", 13, 0.167),
    ("Masters", 14, 0.056), ("Prof-school", 15, 0.017),
    ("Doctorate", 16, 0.012),
)
MARITAL_OTHER = ("Divorced", "Never-married", "Separated", "Widowed",
                 "Married-spouse-absent", "Married-AF-spouse")
MARITAL_OTHER_P = (0.30, 0.57, 0.06, 0.055, 0.014, 0.001)
# (level, share among men, share among women, effect on the label logit)
OCCUPATION = (
    ("Tech-support", 0.028, 0.035, 0.3), ("Craft-repair", 0.19, 0.02, 0.0),
    ("Other-service", 0.07, 0.18, -1.2), ("Sales", 0.12, 0.11, 0.2),
    ("Exec-managerial", 0.15, 0.11, 0.9), ("Prof-specialty", 0.13, 0.14, 0.8),
    ("Handlers-cleaners", 0.06, 0.015, -0.9), ("Machine-op-inspct", 0.07, 0.05, -0.4),
    ("Adm-clerical", 0.06, 0.25, -0.3), ("Farming-fishing", 0.045, 0.006, -0.9),
    ("Transport-moving", 0.07, 0.008, -0.2), ("Priv-house-serv", 0.001, 0.014, -2.0),
    ("Protective-serv", 0.027, 0.006, 0.4), ("Armed-Forces", 0.001, 0.001, 0.0),
)
OCC_MALE = ([o[0] for o in OCCUPATION], [o[1] for o in OCCUPATION])
OCC_FEMALE = ([o[0] for o in OCCUPATION], [o[2] for o in OCCUPATION])
OCC_EFFECT = {o[0]: o[3] for o in OCCUPATION}
EDU_NUM = {e[0]: e[1] for e in EDUCATION}
RELATIONSHIP_OTHER = ("Own-child", "Not-in-family", "Other-relative", "Unmarried")
RELATIONSHIP_OTHER_P = (0.25, 0.43, 0.05, 0.27)
RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
RACE_P = (0.855, 0.095, 0.03, 0.01, 0.01)
COUNTRY = (
    "United-States", "Mexico", "Philippines", "Germany", "Puerto-Rico",
    "Canada", "El-Salvador", "India", "Cuba", "England", "China", "Jamaica",
    "South", "Italy", "Dominican-Republic", "Japan", "Guatemala", "Poland",
    "Vietnam", "Columbia", "Haiti", "Portugal", "Taiwan", "Iran", "Greece",
    "Nicaragua", "Peru", "Ecuador", "France", "Ireland", "Hong", "Thailand",
    "Cambodia", "Trinadad&Tobago", "Outlying-US(Guam-USVI-etc)", "Yugoslavia",
    "Laos", "Scotland", "Honduras", "Hungary", "Holand-Netherlands",
)
# Real Adult: 3,620 of 48,842 rows carry "?".
ADULT_MISSING_SHARE = 3620 / 48842

GERMAN_HEADER = [
    "checking_status", "duration", "credit_history", "purpose",
    "credit_amount", "savings_status", "employment", "installment_rate",
    "personal_status", "other_parties", "residence_since",
    "property_magnitude", "age", "other_payment_plans", "housing",
    "existing_credits", "job", "num_dependents", "own_telephone",
    "foreign_worker", "class",
]
# (column, levels, shares, effect of each level on the good-credit logit)
GERMAN_CATEGORICAL = {
    "checking_status": (("A11", "A12", "A13", "A14"), (0.27, 0.27, 0.06, 0.40),
                        (-0.9, -0.4, 0.2, 0.9)),
    "credit_history": (("A30", "A31", "A32", "A33", "A34"), (0.04, 0.05, 0.53, 0.09, 0.29),
                       (-1.0, -0.9, 0.0, 0.1, 0.6)),
    "purpose": (("A40", "A41", "A42", "A43", "A44", "A45", "A46", "A48", "A49", "A410"),
                (0.234, 0.103, 0.181, 0.28, 0.012, 0.022, 0.05, 0.009, 0.097, 0.012),
                (-0.4, 0.6, 0.0, 0.3, 0.0, -0.2, -0.5, 0.7, 0.0, 0.0)),
    "savings_status": (("A61", "A62", "A63", "A64", "A65"), (0.60, 0.10, 0.06, 0.05, 0.19),
                       (-0.3, -0.1, 0.3, 0.6, 0.5)),
    "employment": (("A71", "A72", "A73", "A74", "A75"), (0.06, 0.17, 0.34, 0.17, 0.26),
                   (-0.3, -0.3, 0.0, 0.4, 0.2)),
    "personal_status": (("A91", "A92", "A93", "A94"), (0.05, 0.31, 0.55, 0.09),
                        (-0.3, -0.2, 0.2, 0.1)),
    "other_parties": (("A101", "A102", "A103"), (0.907, 0.041, 0.052), (0.0, -0.3, 0.5)),
    "property_magnitude": (("A121", "A122", "A123", "A124"), (0.28, 0.23, 0.33, 0.16),
                           (0.4, 0.0, 0.0, -0.4)),
    "other_payment_plans": (("A141", "A142", "A143"), (0.14, 0.05, 0.81), (-0.4, -0.4, 0.2)),
    "housing": (("A151", "A152", "A153"), (0.18, 0.71, 0.11), (-0.3, 0.2, -0.2)),
    "job": (("A171", "A172", "A173", "A174"), (0.02, 0.20, 0.63, 0.15), (0.0, 0.0, 0.0, -0.1)),
    "own_telephone": (("A191", "A192"), (0.60, 0.40), (0.0, 0.1)),
    "foreign_worker": (("A201", "A202"), (0.963, 0.037), (0.0, 0.8)),
}


def _norm(p):
    p = np.asarray(p, dtype=np.float64)
    return p / p.sum()


def _pick(rng, levels, p, size):
    return np.asarray(levels, dtype=object)[rng.choice(len(levels), size=size, p=_norm(p))]


def _cover_levels(column: np.ndarray, levels, rows: np.ndarray) -> None:
    """Overwrite the given rows so that every level occurs at least once."""
    for j, level in enumerate(levels):
        column[rows[j]] = level


def _write(path, header, columns) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _ints(values) -> list[str]:
    return [str(int(v)) for v in values]


def write_adult_csv(path, seed: int, rows: int) -> int:
    """Write an Adult-shaped CSV with `rows` raw rows, of which
    round(rows * 3620 / 48842) carry "?" in workclass, occupation or
    native-country, so the kept row count does not depend on the seed.
    Returns the number of rows without "?"."""
    if rows < 200:
        raise ValueError("an Adult-shaped file needs at least 200 rows")
    rng = np.random.default_rng([seed, 1])
    # The first rows of a random order carry every level, so the one-hot
    # width is the real one; the "?" rows are drawn from the others.
    order = rng.permutation(rows)
    cover, rest = order[:len(COUNTRY)], order[len(COUNTRY):]

    def draw(levels, p):
        column = _pick(rng, levels, p, rows)
        _cover_levels(column, levels, cover)
        return column

    male = rng.random(rows) < 0.675
    age = np.clip(np.round(17 + rng.gamma(3.0, 7.0, rows)), 17, 90)
    race = draw(RACE, RACE_P)
    education = draw([e[0] for e in EDUCATION], [e[2] for e in EDUCATION])
    edu_num = np.array([EDU_NUM[e] for e in education], dtype=np.float64)
    p_married = np.where(male, 0.62, 0.11) * np.clip((age - 17) / 18, 0.1, 1.0)
    p_married *= np.where(race == "White", 1.0, 0.65)
    married = rng.random(rows) < p_married
    married[cover] = False
    marital = draw(MARITAL_OTHER, MARITAL_OTHER_P)
    marital[married] = "Married-civ-spouse"
    relationship = draw(RELATIONSHIP_OTHER, RELATIONSHIP_OTHER_P)
    relationship[married & male] = "Husband"
    relationship[married & ~male] = "Wife"
    occupation = np.where(male, draw(*OCC_MALE), draw(*OCC_FEMALE))
    _cover_levels(occupation, OCC_MALE[0], cover)
    occ_effect = np.array([OCC_EFFECT[o] for o in occupation])
    hours = np.clip(np.round(rng.normal(np.where(male, 42.5, 35.5), 11.0)), 1, 99)
    gain = np.where(rng.random(rows) < 0.085, np.round(rng.lognormal(8.3, 1.0, rows)), 0)
    gain = np.minimum(gain, 99999)
    loss = np.where(rng.random(rows) < 0.047, np.round(rng.normal(1870, 370, rows)), 0)
    loss = np.clip(loss, 0, 4356)
    fnlwgt = np.round(rng.lognormal(12.0, 0.55, rows))
    workclass = draw(WORKCLASS, WORKCLASS_P)
    country_p = np.full(len(COUNTRY), 0.09 / (len(COUNTRY) - 1))
    country_p[0] = 0.91
    country = draw(COUNTRY, country_p)
    sex = np.where(male, "Male", "Female")

    logit = (
        -3.3
        + 0.55 * (edu_num - 10)
        + 0.045 * (np.minimum(age, 60) - 38)
        + 2.9 * married
        + 0.035 * (hours - 40)
        + occ_effect
        + 2.5 * (gain > 5000)
        + 1.2 * (loss > 1500)
    )
    income = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-logit)), ">50K", "<=50K")

    missing = rng.choice(rest, size=round(rows * ADULT_MISSING_SHARE), replace=False)
    target = rng.integers(0, 3, missing.size)
    for column, which in ((workclass, 0), (occupation, 1), (country, 2)):
        column[missing[target == which]] = "?"

    _write(path, ADULT_HEADER, [
        _ints(age), workclass, _ints(fnlwgt), education, _ints(edu_num), marital,
        occupation, relationship, race, sex, _ints(gain), _ints(loss), _ints(hours),
        country, income,
    ])
    return rows - missing.size


def write_german_csv(path, seed: int, rows: int = 1000) -> int:
    """Write a German-credit-shaped CSV with `rows` rows (no missing
    cells); about 70% of rows have class 1 (good). Returns `rows`."""
    if rows < 100:
        raise ValueError("a German-shaped file needs at least 100 rows")
    rng = np.random.default_rng([seed, 2])
    age = np.clip(np.round(19 + rng.gamma(2.2, 7.5, rows)), 19, 75)
    cats, effect = {}, np.zeros(rows)
    for name, (levels, shares, effects) in GERMAN_CATEGORICAL.items():
        idx = rng.choice(len(levels), size=rows, p=_norm(shares))
        if name == "employment":
            # Older applicants have held their job longer.
            idx = np.clip(idx + (age > 40) - (age < 25), 0, len(levels) - 1)
        cats[name] = np.asarray(levels, dtype=object)[idx]
        effect += np.asarray(effects)[idx]
    order = rng.permutation(rows)
    for name, (levels, _, _) in GERMAN_CATEGORICAL.items():
        _cover_levels(cats[name], levels, order)
    duration = np.clip(np.round(rng.gamma(2.8, 7.5, rows)), 4, 72)
    amount = np.clip(np.round(duration * rng.lognormal(4.9, 0.5, rows)), 250, 18424)
    installment = rng.integers(1, 5, rows)
    residence = rng.integers(1, 5, rows)
    credits = 1 + rng.binomial(3, 0.13, rows)
    dependents = 1 + (rng.random(rows) < 0.155)
    logit = 0.55 + effect - 0.03 * (duration - 21) - 0.12 * (installment - 3)
    good = rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))
    label = np.where(good, "1", "2")
    _write(path, GERMAN_HEADER, [
        cats["checking_status"], _ints(duration), cats["credit_history"], cats["purpose"],
        _ints(amount), cats["savings_status"], cats["employment"], _ints(installment),
        cats["personal_status"], cats["other_parties"], _ints(residence),
        cats["property_magnitude"], _ints(age), cats["other_payment_plans"], cats["housing"],
        _ints(credits), cats["job"], _ints(dependents), cats["own_telephone"],
        cats["foreign_worker"], label,
    ])
    return rows
